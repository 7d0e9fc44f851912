package core

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// The Embed-MatMul federated source layer (paper Fig. 7) computes
//
//	Z = E_A·W_A + E_B·W_B,  E⋄ = lkup(Q⋄, X⋄)
//
// for categorical features X⋄. Both the embedding tables Q⋄ = S⋄ + T⋄ and
// the matmul weights W⋄ = U⋄ + V⋄ are secret-shared; party ⋄ holds S⋄ and
// U⋄, the other party holds T⋄ and V⋄, and each piece needed homomorphically
// is mirrored as a ciphertext under its generator's key. Lookups over the
// encrypted piece ⟦T⋄⟧ run at party ⋄ (which knows its own indices) and the
// results are converted to secret shares, so neither party ever obtains an
// embedding row, an activation, or a derivative in the clear.

// EmbedConfig extends Config with the embedding geometry of one party.
type EmbedConfig struct {
	Config
	VocabA, VocabB   int // embedding table rows per party
	FieldsA, FieldsB int // categorical fields per party
	Dim              int // embedding dimension
}

// EmbedMatMulA is Party A's half of the Embed-MatMul source layer.
type EmbedMatMulA struct {
	cfg  EmbedConfig
	peer *protocol.Peer

	SA *tensor.Dense // A's piece of Q_A (VocabA×Dim)
	TB *tensor.Dense // A's piece of Q_B (VocabB×Dim)
	UA *tensor.Dense // A's piece of W_A (FieldsA·Dim×Out)
	VB *tensor.Dense // A's piece of W_B (FieldsB·Dim×Out)

	encTA hetensor.Matrix        // ⟦T_A⟧ under B's key, packed if B packs
	encVA *hetensor.CipherMatrix // ⟦V_A⟧ under B's key
	encUB *hetensor.CipherMatrix // ⟦U_B⟧ under B's key

	momSA, momTB, momUA, momVB momentum

	// Forward state cached for the backward pass.
	x      *tensor.IntMatrix
	psiA   *tensor.Dense // ψ_A = ε_A + lkup(S_A, X_A)
	ebmPsi *tensor.Dense // E_B − ψ_B
}

// EmbedMatMulB is Party B's half of the Embed-MatMul source layer.
type EmbedMatMulB struct {
	cfg  EmbedConfig
	peer *protocol.Peer

	SB *tensor.Dense // B's piece of Q_B
	TA *tensor.Dense // B's piece of Q_A
	UB *tensor.Dense // B's piece of W_B
	VA *tensor.Dense // B's piece of W_A

	encTB hetensor.Matrix        // ⟦T_B⟧ under A's key, packed if A packs
	encVB *hetensor.CipherMatrix // ⟦V_B⟧ under A's key
	encUA *hetensor.CipherMatrix // ⟦U_A⟧ under A's key

	momSB, momTA, momUB, momVA momentum

	x      *tensor.IntMatrix
	psiB   *tensor.Dense // ψ_B = ε_B + lkup(S_B, X_B)
	eamPsi *tensor.Dense // E_A − ψ_A
}

// NewEmbedMatMulA initializes Party A's half (Fig. 7 lines 1–4): A draws
// S_A, T_B, U_A, V_B, ships ⟦T_B⟧, ⟦U_A⟧, ⟦V_B⟧ under its own key, and
// receives ⟦T_A⟧, ⟦U_B⟧, ⟦V_A⟧ under B's key.
func NewEmbedMatMulA(p *protocol.Peer, cfg EmbedConfig) *EmbedMatMulA {
	cfg.apply(p)
	s := cfg.initScale()
	l := &EmbedMatMulA{
		cfg: cfg, peer: p,
		SA:    tensor.RandDense(p.Rng, cfg.VocabA, cfg.Dim, s),
		TB:    tensor.RandDense(p.Rng, cfg.VocabB, cfg.Dim, s),
		UA:    tensor.RandDense(p.Rng, cfg.FieldsA*cfg.Dim, cfg.Out, s),
		VB:    tensor.RandDense(p.Rng, cfg.FieldsB*cfg.Dim, cfg.Out, s),
		momSA: momentum{mu: cfg.Momentum}, momTB: momentum{mu: cfg.Momentum},
		momUA: momentum{mu: cfg.Momentum}, momVB: momentum{mu: cfg.Momentum},
	}
	cfg.sendEncrypted(p, l.TB)
	p.EncryptAndSend(l.UA, 1, false)
	p.EncryptAndSend(l.VB, 1, false)
	l.encTA = p.RecvMatrix()
	l.encUB = recvCipher(p)
	l.encVA = recvCipher(p)
	return l
}

// NewEmbedMatMulB initializes Party B's half, symmetric to NewEmbedMatMulA.
func NewEmbedMatMulB(p *protocol.Peer, cfg EmbedConfig) *EmbedMatMulB {
	cfg.apply(p)
	s := cfg.initScale()
	l := &EmbedMatMulB{
		cfg: cfg, peer: p,
		SB:    tensor.RandDense(p.Rng, cfg.VocabB, cfg.Dim, s),
		TA:    tensor.RandDense(p.Rng, cfg.VocabA, cfg.Dim, s),
		UB:    tensor.RandDense(p.Rng, cfg.FieldsB*cfg.Dim, cfg.Out, s),
		VA:    tensor.RandDense(p.Rng, cfg.FieldsA*cfg.Dim, cfg.Out, s),
		momSB: momentum{mu: cfg.Momentum}, momTA: momentum{mu: cfg.Momentum},
		momUB: momentum{mu: cfg.Momentum}, momVA: momentum{mu: cfg.Momentum},
	}
	l.encTB = p.RecvMatrix()
	l.encUA = recvCipher(p)
	l.encVB = recvCipher(p)
	cfg.sendEncrypted(p, l.TA)
	p.EncryptAndSend(l.UB, 1, false)
	p.EncryptAndSend(l.VA, 1, false)
	return l
}

// embedStage runs Fig. 7 lines 5–7 for one party: lookup over the encrypted
// peer-generated piece ⟦T⟧ with the local indices, convert to shares, and
// assemble ψ = ε + lkup(S, X). It returns ψ (this party's share of its own
// E) and the peer's complementary share E' − ψ' obtained from HE2SS. A
// packed table's per-row lane layout carries through the batch×(fields·dim)
// lookup result (Block = dim), so its conversion masks K lanes per blinding
// exponentiation.
func embedStage(p *protocol.Peer, encT hetensor.Matrix, s *tensor.Dense, x *tensor.IntMatrix) (psi, otherShare *tensor.Dense) {
	encLk := hetensor.LookupRows(encT, x) // ⟦lkup(T, X)⟧ under the peer's key
	eps := p.HE2SSSend(encLk)             // peer receives lkup(T, X) − ε
	otherShare = p.HE2SSRecv()            // this party's share of the peer's E
	psi = eps.Add(tensor.Lookup(s, x))
	return psi, otherShare
}

// Forward runs Party A's forward pass (Fig. 7 lines 5–11). A outputs
// nothing; its share Z'_A is shipped to B.
func (l *EmbedMatMulA) Forward(x *tensor.IntMatrix) {
	l.x = x
	l.psiA, l.ebmPsi = embedStage(l.peer, l.encTA, l.SA, x)

	// Line 8: Z'_1,A = MatMulFw(ψ_A, U_A, ⟦V_A⟧).
	z1 := forwardHalf(l.peer, DenseFeatures{l.psiA}, l.UA, l.encVA)
	// Line 9: Z'_2,A = MatMulFw(E_B−ψ_B, V_B, ⟦U_B⟧).
	z2 := forwardHalf(l.peer, DenseFeatures{l.ebmPsi}, l.VB, l.encUB)

	z1.AddInPlace(z2)
	l.peer.Send(z1) // line 10: ship Z'_A
}

// Forward runs Party B's forward pass and returns Z = E_A·W_A + E_B·W_B.
func (l *EmbedMatMulB) Forward(x *tensor.IntMatrix) *tensor.Dense {
	l.x = x
	l.psiB, l.eamPsi = embedStage(l.peer, l.encTB, l.SB, x)

	z1 := forwardHalf(l.peer, DenseFeatures{l.psiB}, l.UB, l.encVB)
	z2 := forwardHalf(l.peer, DenseFeatures{l.eamPsi}, l.VA, l.encUA)

	z1.AddInPlace(z2)
	zA := l.peer.RecvDense()
	return z1.Add(zA)
}

// Backward runs Party A's backward pass (Fig. 7 lines 12–26).
func (l *EmbedMatMulA) Backward() {
	p := l.peer
	// Line 12: receive ⟦∇Z⟧ and ⟦∇Z·V_Aᵀ⟧ under B's key.
	encGradZ := recvCipher(p)
	encGradZVAT := recvCipher(p)

	// Line 21, first term: ⟦∇Z⟧·U_Aᵀ must use the forward-pass U_A, so it
	// is computed before the MatMul-part update below touches U_A.
	encGradEA := hetensor.MulPlainRightTranspose(encGradZ, l.UA).AddCipher(encGradZVAT)

	// --- Backward of the MatMul part (lines 13–20) ---
	// ∇W_A = ψ_Aᵀ∇Z + (E_A−ψ_A)ᵀ∇Z; A computes the first term encrypted.
	phi := p.HE2SSSend(hetensor.TransposeMulLeft(l.psiA, encGradZ))
	l.momUA.step(l.UA, phi, l.cfg.LR)

	// ∇W_B = ψ_Bᵀ∇Z + (E_B−ψ_B)ᵀ∇Z; A computes the second term encrypted.
	xi := p.HE2SSSend(hetensor.TransposeMulLeft(l.ebmPsi, encGradZ))
	l.momVB.step(l.VB, xi, l.cfg.LR)

	// Refresh the encrypted weight copies (U_A changed here; V_A at B).
	p.EncryptAndSend(l.UA, 1, false)
	p.EncryptAndSend(l.VB, 1, false)
	l.encVA = recvCipher(p)
	l.encUB = recvCipher(p)

	// --- Backward of the Embed part (lines 21–26) ---
	// ⟦∇E_A⟧ = ⟦∇Z⟧·U_Aᵀ + ⟦∇Z·V_Aᵀ⟧ (computed above with forward weights).
	encGradQA := hetensor.LookupBackward(encGradEA, l.x, l.cfg.VocabA, l.cfg.Dim)
	rhoA := p.HE2SSSend(encGradQA) // B receives ∇Q_A − ρ_A
	l.momSA.step(l.SA, rhoA, l.cfg.LR)

	// Symmetric for Q_B: B ships the masked ⟦∇Q_B − ρ_B⟧ under A's key.
	gradTBshare := p.HE2SSRecv() // ∇Q_B − ρ_B
	l.momTB.step(l.TB, gradTBshare, l.cfg.LR)

	// Refresh encrypted table copies: T_B changed here, T_A at B.
	l.cfg.sendEncrypted(p, l.TB)
	l.encTA = p.RecvMatrix()

	l.x, l.psiA, l.ebmPsi = nil, nil, nil
}

// Backward runs Party B's backward pass given the top model's ∇Z.
func (l *EmbedMatMulB) Backward(gradZ *tensor.Dense) {
	p := l.peer
	// Line 12: encrypt and ship ∇Z and ∇Z·V_Aᵀ under B's own key. The
	// product is computed in plaintext (B holds both operands) and
	// encrypted at scale 2 so A can add it to its scale-2 ⟦∇Z⟧·U_Aᵀ term.
	p.EncryptAndSend(gradZ, 1, false)
	gradZVAT := gradZ.MatMulTranspose(l.VA)
	p.EncryptAndSend(gradZVAT, 2, false)

	// The Embed-part derivative ⟦∇E_B⟧ = Enc_A(∇Z·U_Bᵀ) + ∇Z·⟦V_B⟧ᵀ must
	// use the forward-pass U_B and ⟦V_B⟧, so both terms are computed before
	// the MatMul-part update and refresh below replace them.
	encGradEB := hetensor.Encrypt(p.PeerPK, gradZ.MatMulTranspose(l.UB), 2).
		AddCipher(hetensor.MulPlainLeftTransposeRight(gradZ, l.encVB))

	// --- Backward of the MatMul part ---
	// ∇W_A − φ = (E_A−ψ_A)ᵀ∇Z + (ψ_Aᵀ∇Z − φ).
	gradWAshare := l.eamPsi.TransposeMatMul(gradZ).Add(p.HE2SSRecv())
	l.momVA.step(l.VA, gradWAshare, l.cfg.LR)

	// ∇W_B − ξ = ψ_Bᵀ∇Z + ((E_B−ψ_B)ᵀ∇Z − ξ).
	gradWBshare := l.psiB.TransposeMatMul(gradZ).Add(p.HE2SSRecv())
	l.momUB.step(l.UB, gradWBshare, l.cfg.LR)

	// Refresh encrypted weight copies.
	l.encUA = recvCipher(p)
	l.encVB = recvCipher(p)
	p.EncryptAndSend(l.VA, 1, false)
	p.EncryptAndSend(l.UB, 1, false)

	// --- Backward of the Embed part ---
	// B's share of ∇Q_A arrives masked from A.
	gradTAshare := p.HE2SSRecv() // ∇Q_A − ρ_A
	l.momTA.step(l.TA, gradTAshare, l.cfg.LR)

	encGradQB := hetensor.LookupBackward(encGradEB, l.x, l.cfg.VocabB, l.cfg.Dim)
	rhoB := p.HE2SSSend(encGradQB) // A receives ∇Q_B − ρ_B
	l.momSB.step(l.SB, rhoB, l.cfg.LR)

	// Refresh encrypted table copies.
	l.encTB = p.RecvMatrix()
	l.cfg.sendEncrypted(p, l.TA)

	l.x, l.psiB, l.eamPsi = nil, nil, nil
}

// DebugTableA reconstructs Q_A = S_A + T_A. Test use only.
func DebugTableA(a *EmbedMatMulA, b *EmbedMatMulB) *tensor.Dense { return a.SA.Add(b.TA) }

// DebugTableB reconstructs Q_B = S_B + T_B. Test use only.
func DebugTableB(a *EmbedMatMulA, b *EmbedMatMulB) *tensor.Dense { return b.SB.Add(a.TB) }

// DebugEmbedWeightsA reconstructs W_A = U_A + V_A. Test use only.
func DebugEmbedWeightsA(a *EmbedMatMulA, b *EmbedMatMulB) *tensor.Dense { return a.UA.Add(b.VA) }

// DebugEmbedWeightsB reconstructs W_B = U_B + V_B. Test use only.
func DebugEmbedWeightsB(a *EmbedMatMulA, b *EmbedMatMulB) *tensor.Dense { return b.UB.Add(a.VB) }

// PieceSA exposes Party A's share of its embedding table for the Fig. 11
// share-divergence experiment.
func (l *EmbedMatMulA) PieceSA() *tensor.Dense { return l.SA }
