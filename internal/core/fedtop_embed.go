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
	// ⟦∇Z⟧ under B's key, in B's lanes and per value ("Wire layouts", embedmatmul.go).
	encGradZ := p.SS2HEAs(eps, 1, l.cfg.layout(0))
	gradZCells := p.SS2HEAs(eps, 1, l.cfg.layout(1))

	// --- Embed-part derivative pieces must use forward-pass weights ---
	// ⟦∇E_A⟧_B = ⟦∇Z⟧_B·U_Aᵀ + ⟦(∇Z−ε)·V_Aᵀ⟧_B + ε·⟦V_Aᵀ⟧_B.
	fromB := p.RecvMatrix() // ⟦(∇Z−ε)·V_Aᵀ⟧
	encGradEA := hetensor.Add(hetensor.MulRightTransposeAdd(fromB, gradZCells, l.UA), hetensor.MulLeft(eps, l.encVAT))
	// A's contribution to ∇E_B: ε·V_Bᵀ encrypted under A's own key.
	l.cfg.sendEncrypted(p, eps.MatMulTranspose(l.VB), 2, l.cfg.Dim)

	// --- MatMul part (shares of ∇W_A and ∇W_B) ---
	// A's pieces: ⟦ψ_Aᵀ∇Z⟧_B and ⟦(E_B−ψ_B)ᵀ∇Z⟧_B via HE2SS.
	phiA, xiA := convertHalves(p, transposeMul(DenseFeatures{tensor.HStack(l.psiA, l.ebmPsi)}, encGradZ), l.psiA.Cols)
	// B's pieces arrive masked: (E_A−ψ_A)ᵀ∇Z − ξ and ψ_Bᵀ∇Z − φ_B.
	gradWAother := p.HE2SSRecv()
	gradWBother := p.HE2SSRecv()

	// ∇W_A share at A: φ_A + ((E_A−ψ_A)ᵀ∇Z − ξ) → updates U_A.
	l.momUA.step(l.UA, phiA.Add(gradWAother), l.cfg.LR)
	// ∇W_B share at A: ξ_A(our mask of (E_B−ψ_B)ᵀ∇Z) + (ψ_Bᵀ∇Z − φ_B) → V_B.
	l.momVB.step(l.VB, xiA.Add(gradWBother), l.cfg.LR)

	l.exchangeWeights() // all four pieces changed
	l.backwardEmbed(encGradEA)
}

// BackwardSS runs Party B's backward pass given B's derivative share ∇Z−ε.
func (l *EmbedMatMulB) BackwardSS(gradShare *tensor.Dense) {
	p := l.peer
	// ⟦∇Z⟧ under A's key, in A's lanes and per value.
	encGradZ := p.SS2HEAs(gradShare, 1, l.cfg.layout(0))
	gradZCells := p.SS2HEAs(gradShare, 1, l.cfg.layout(1))

	// B's contribution to ∇E_A: (∇Z−ε)·V_Aᵀ encrypted under B's own key.
	l.cfg.sendEncrypted(p, gradShare.MatMulTranspose(l.VA), 2, l.cfg.Dim)
	// ⟦∇E_B⟧_A = ⟦∇Z⟧_A·U_Bᵀ + ⟦ε·V_Bᵀ⟧_A + (∇Z−ε)·⟦V_Bᵀ⟧_A.
	fromA := p.RecvMatrix() // ⟦ε·V_Bᵀ⟧
	encGradEB := hetensor.Add(hetensor.MulRightTransposeAdd(fromA, gradZCells, l.UB), hetensor.MulLeft(gradShare, l.encVBT))

	// --- MatMul part ---
	// B's masked pieces of A's homomorphic terms.
	gradWAother := p.HE2SSRecv() // ψ_Aᵀ∇Z − φ_A
	gradWBother := p.HE2SSRecv() // (E_B−ψ_B)ᵀ∇Z − ξ_A
	// B's own homomorphic terms: (E_A−ψ_A)ᵀ∇Z stacked on ψ_Bᵀ∇Z.
	xiB, phiB := convertHalves(p, transposeMul(DenseFeatures{tensor.HStack(l.eamPsi, l.psiB)}, encGradZ), l.eamPsi.Cols)

	// ∇W_A share at B: (ψ_Aᵀ∇Z − φ_A) + ξ_B → updates V_A.
	l.momVA.step(l.VA, gradWAother.Add(xiB), l.cfg.LR)
	// ∇W_B share at B: φ_B + ((E_B−ψ_B)ᵀ∇Z − ξ_A) → updates U_B.
	l.momUB.step(l.UB, phiB.Add(gradWBother), l.cfg.LR)

	l.exchangeWeights()
	l.backwardEmbed(encGradEB)
}
