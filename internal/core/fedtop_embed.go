package core

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
)

// Federated (SS-based) top model support for the Embed-MatMul source layer
// (paper Appendix B, Fig. 14). As with the MatMul variant, the forward
// output stays a share pair and the backward input is a share pair
// ⟨ε, ∇Z−ε⟩; the difference is that every gradient — including B's own
// ∇W_B and both table gradients — must now be assembled from homomorphic
// pieces, since neither party holds ∇Z in plaintext.

// ForwardSS runs Party A's forward pass for a federated top model and
// returns A's share Z'_A (Fig. 14 line 1).
func (l *EmbedMatMulA) ForwardSS(x *tensor.IntMatrix) *tensor.Dense {
	l.x = x
	l.psiA, l.ebmPsi = embedStage(l.peer, l.encTA, l.SA, x)
	z1 := forwardHalf(l.peer, DenseFeatures{l.psiA}, l.UA, l.encVA)
	z2 := forwardHalf(l.peer, DenseFeatures{l.ebmPsi}, l.VB, l.encUB)
	z1.AddInPlace(z2)
	return z1
}

// ForwardSS runs Party B's forward pass and returns B's share Z'_B.
func (l *EmbedMatMulB) ForwardSS(x *tensor.IntMatrix) *tensor.Dense {
	l.x = x
	l.psiB, l.eamPsi = embedStage(l.peer, l.encTB, l.SB, x)
	z1 := forwardHalf(l.peer, DenseFeatures{l.psiB}, l.UB, l.encVB)
	z2 := forwardHalf(l.peer, DenseFeatures{l.eamPsi}, l.VA, l.encUA)
	z1.AddInPlace(z2)
	return z1
}

// BackwardSS runs Party A's backward pass given A's derivative share ε
// (Fig. 14 lines 2–10).
func (l *EmbedMatMulA) BackwardSS(eps *tensor.Dense) {
	p := l.peer
	encGradZ := p.SS2HE(eps, 1) // ⟦∇Z⟧ under B's key

	// --- Embed-part derivative pieces must use forward-pass weights ---
	// ⟦∇E_A⟧_B = ⟦∇Z⟧_B·U_Aᵀ + ⟦(∇Z−ε)·V_Aᵀ⟧_B + ε·⟦V_Aᵀ⟧_B.
	encGradEA := hetensor.MulPlainRightTranspose(encGradZ, l.UA).
		AddCipher(recvCipher(p)). // ⟦(∇Z−ε)·V_Aᵀ⟧ from B
		AddCipher(hetensor.MulPlainLeftTransposeRight(eps, l.encVA))
	// A's contribution to ∇E_B: ε·V_Bᵀ encrypted under A's own key.
	p.EncryptAndSend(eps.MatMulTranspose(l.VB), 2, false)

	// --- MatMul part (shares of ∇W_A and ∇W_B) ---
	// A's pieces: ⟦ψ_Aᵀ∇Z⟧_B and ⟦(E_B−ψ_B)ᵀ∇Z⟧_B via HE2SS.
	phiA := p.HE2SSSend(hetensor.TransposeMulLeft(l.psiA, encGradZ))
	xiA := p.HE2SSSend(hetensor.TransposeMulLeft(l.ebmPsi, encGradZ))
	// B's pieces arrive masked: (E_A−ψ_A)ᵀ∇Z − ξ and ψ_Bᵀ∇Z − φ_B.
	gradWAother := p.HE2SSRecv()
	gradWBother := p.HE2SSRecv()

	// ∇W_A share at A: φ_A + ((E_A−ψ_A)ᵀ∇Z − ξ) → updates U_A.
	l.momUA.step(l.UA, phiA.Add(gradWAother), l.cfg.LR)
	// ∇W_B share at A: ξ_A(our mask of (E_B−ψ_B)ᵀ∇Z) + (ψ_Bᵀ∇Z − φ_B) → V_B.
	l.momVB.step(l.VB, xiA.Add(gradWBother), l.cfg.LR)

	// Refresh encrypted weight copies (all four pieces changed).
	p.EncryptAndSend(l.UA, 1, false)
	p.EncryptAndSend(l.VB, 1, false)
	l.encVA = recvCipher(p)
	l.encUB = recvCipher(p)

	// --- Embed part: table updates (Fig. 7 lines 22–26 unchanged) ---
	encGradQA := hetensor.LookupBackward(encGradEA, l.x, l.cfg.VocabA, l.cfg.Dim)
	rhoA := p.HE2SSSend(encGradQA)
	l.momSA.step(l.SA, rhoA, l.cfg.LR)

	gradTBshare := p.HE2SSRecv() // ∇Q_B − ρ_B
	l.momTB.step(l.TB, gradTBshare, l.cfg.LR)

	l.cfg.sendEncrypted(p, l.TB)
	l.encTA = p.RecvMatrix()

	l.x, l.psiA, l.ebmPsi = nil, nil, nil
}

// BackwardSS runs Party B's backward pass given B's derivative share ∇Z−ε.
func (l *EmbedMatMulB) BackwardSS(gradShare *tensor.Dense) {
	p := l.peer
	encGradZ := p.SS2HE(gradShare, 1) // ⟦∇Z⟧ under A's key

	// B's contribution to ∇E_A: (∇Z−ε)·V_Aᵀ encrypted under B's own key.
	p.EncryptAndSend(gradShare.MatMulTranspose(l.VA), 2, false)
	// ⟦∇E_B⟧_A = ⟦∇Z⟧_A·U_Bᵀ + ⟦ε·V_Bᵀ⟧_A + (∇Z−ε)·⟦V_Bᵀ⟧_A.
	encGradEB := hetensor.MulPlainRightTranspose(encGradZ, l.UB).
		AddCipher(recvCipher(p)). // ⟦ε·V_Bᵀ⟧ from A
		AddCipher(hetensor.MulPlainLeftTransposeRight(gradShare, l.encVB))

	// --- MatMul part ---
	// B's masked pieces of A's homomorphic terms.
	gradWAother := p.HE2SSRecv() // ψ_Aᵀ∇Z − φ_A
	gradWBother := p.HE2SSRecv() // (E_B−ψ_B)ᵀ∇Z − ξ_A
	// B's own homomorphic terms.
	xiB := p.HE2SSSend(hetensor.TransposeMulLeft(l.eamPsi, encGradZ)) // (E_A−ψ_A)ᵀ∇Z
	phiB := p.HE2SSSend(hetensor.TransposeMulLeft(l.psiB, encGradZ))  // ψ_Bᵀ∇Z

	// ∇W_A share at B: (ψ_Aᵀ∇Z − φ_A) + ξ_B → updates V_A.
	l.momVA.step(l.VA, gradWAother.Add(xiB), l.cfg.LR)
	// ∇W_B share at B: φ_B + ((E_B−ψ_B)ᵀ∇Z − ξ_A) → updates U_B.
	l.momUB.step(l.UB, phiB.Add(gradWBother), l.cfg.LR)

	// Refresh encrypted weight copies.
	l.encUA = recvCipher(p)
	l.encVB = recvCipher(p)
	p.EncryptAndSend(l.VA, 1, false)
	p.EncryptAndSend(l.UB, 1, false)

	// --- Embed part ---
	gradTAshare := p.HE2SSRecv() // ∇Q_A − ρ_A
	l.momTA.step(l.TA, gradTAshare, l.cfg.LR)

	encGradQB := hetensor.LookupBackward(encGradEB, l.x, l.cfg.VocabB, l.cfg.Dim)
	rhoB := p.HE2SSSend(encGradQB)
	l.momSB.step(l.SB, rhoB, l.cfg.LR)

	l.encTB = p.RecvMatrix()
	l.cfg.sendEncrypted(p, l.TA)

	l.x, l.psiB, l.eamPsi = nil, nil, nil
}
