package core

import (
	"fmt"
	"io"

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

	// The mirrors under B's key, each in the lane format B chose (the wire
	// layouts are listed under "Wire layouts" below).
	encTA         *hetensor.Matrix // ⟦T_A⟧
	encVA, encVAT *hetensor.Matrix // ⟦V_A⟧ and ⟦V_Aᵀ⟧
	encUB         *hetensor.Matrix // ⟦U_B⟧

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

	// The mirrors under A's key, each in the lane format A chose.
	encTB         *hetensor.Matrix // ⟦T_B⟧
	encVB, encVBT *hetensor.Matrix // ⟦V_B⟧ and ⟦V_Bᵀ⟧
	encUA         *hetensor.Matrix // ⟦U_A⟧

	momSB, momTA, momUB, momVA momentum

	x      *tensor.IntMatrix
	psiB   *tensor.Dense // ψ_B = ε_B + lkup(S_B, X_B)
	eamPsi *tensor.Dense // E_A − ψ_A
}

// NewEmbedMatMulA initializes Party A's half (Fig. 7 lines 1–4): A draws
// S_A, T_B, U_A, V_B, ships ⟦T_B⟧, ⟦U_A⟧, ⟦V_B⟧ under its own key, and
// receives ⟦T_A⟧, ⟦U_B⟧, ⟦V_A⟧ under B's key.
func NewEmbedMatMulA(p *protocol.Peer, cfg EmbedConfig) *EmbedMatMulA {
	l := &EmbedMatMulA{
		cfg: cfg, peer: p,
		SA:    tensor.RandDense(p.Rng, cfg.VocabA, cfg.Dim, initScale),
		TB:    tensor.RandDense(p.Rng, cfg.VocabB, cfg.Dim, initScale),
		UA:    tensor.RandDense(p.Rng, cfg.FieldsA*cfg.Dim, cfg.Out, initScale),
		VB:    tensor.RandDense(p.Rng, cfg.FieldsB*cfg.Dim, cfg.Out, initScale),
		momSA: momentum{mu: cfg.Momentum}, momTB: momentum{mu: cfg.Momentum},
		momUA: momentum{mu: cfg.Momentum}, momVB: momentum{mu: cfg.Momentum},
	}
	l.ResumeExchange()
	return l
}

// NewEmbedMatMulB initializes Party B's half, symmetric to NewEmbedMatMulA.
func NewEmbedMatMulB(p *protocol.Peer, cfg EmbedConfig) *EmbedMatMulB {
	l := &EmbedMatMulB{
		cfg: cfg, peer: p,
		SB:    tensor.RandDense(p.Rng, cfg.VocabB, cfg.Dim, initScale),
		TA:    tensor.RandDense(p.Rng, cfg.VocabA, cfg.Dim, initScale),
		UB:    tensor.RandDense(p.Rng, cfg.FieldsB*cfg.Dim, cfg.Out, initScale),
		VA:    tensor.RandDense(p.Rng, cfg.FieldsA*cfg.Dim, cfg.Out, initScale),
		momSB: momentum{mu: cfg.Momentum}, momTA: momentum{mu: cfg.Momentum},
		momUB: momentum{mu: cfg.Momentum}, momVA: momentum{mu: cfg.Momentum},
	}
	l.ResumeExchange()
	return l
}

// ResumeExchange mints every encrypted mirror from the plaintext pieces — at
// construction, and again after a checkpoint restore: the tables, then the
// weights. Must run concurrently with ResumeExchange on the other side.
func (l *EmbedMatMulA) ResumeExchange() {
	l.exchangeTables()
	l.exchangeWeights()
}

// ResumeExchange is Party B's half of the mirror exchange.
func (l *EmbedMatMulB) ResumeExchange() {
	l.exchangeTables()
	l.exchangeWeights()
}

// Settle is a no-op: an embedding step leaves nothing owed.
func (l *EmbedMatMulA) Settle() {}

// Settle is a no-op: an embedding step leaves nothing owed.
func (l *EmbedMatMulB) Settle() {}

// embedState mirrors an Embed-MatMul half's persistent fields for gob: the
// four pieces it holds — its own table and weight pieces (S, U) and its
// pieces of the peer's (T, V) — and their momentum buffers.
type embedState struct {
	Cfg                    EmbedConfig
	S, T, U, V             *tensor.Dense
	MomS, MomT, MomU, MomV *tensor.Dense
}

// Save writes Party A's half: S_A, T_B, U_A, V_B and their momentum.
func (l *EmbedMatMulA) Save(w io.Writer) error {
	return save(w, "EmbedMatMulA", false, embedState{l.cfg, l.SA, l.TB, l.UA, l.VB,
		l.momSA.buf, l.momTB.buf, l.momUA.buf, l.momVB.buf})
}

// Save writes Party B's half: S_B, T_A, U_B, V_A and their momentum.
func (l *EmbedMatMulB) Save(w io.Writer) error {
	return save(w, "EmbedMatMulB", false, embedState{l.cfg, l.SB, l.TA, l.UB, l.VA,
		l.momSB.buf, l.momTA.buf, l.momUB.buf, l.momVA.buf})
}

// loadEmbed decodes a half's state and vets it against cfg, the geometry the
// enclosing checkpoint declares; own and peer name the table vocabularies
// and field counts of the half's own side and of its peer's.
func loadEmbed(r io.Reader, what string, cfg EmbedConfig, ownVocab, ownFields, peerVocab, peerFields int) (*embedState, error) {
	var st embedState
	err := load(r, what, &st, func() error {
		if st.Cfg != cfg {
			return fmt.Errorf("layer geometry %+v, checkpoint declares %+v", st.Cfg, cfg)
		}
		return checkHalf(st.Cfg.Config, cfg.Out,
			piece{st.S, st.MomS, ownVocab, cfg.Dim}, piece{st.T, st.MomT, peerVocab, cfg.Dim},
			piece{st.U, st.MomU, ownFields * cfg.Dim, cfg.Out}, piece{st.V, st.MomV, peerFields * cfg.Dim, cfg.Out})
	})
	return &st, err
}

// LoadEmbedMatMulA restores Party A's half onto a live peer session. It has
// no encrypted mirrors until ResumeExchange runs.
func LoadEmbedMatMulA(r io.Reader, p *protocol.Peer, cfg EmbedConfig) (*EmbedMatMulA, error) {
	st, err := loadEmbed(r, "EmbedMatMulA", cfg, cfg.VocabA, cfg.FieldsA, cfg.VocabB, cfg.FieldsB)
	if err != nil {
		return nil, err
	}
	mu := cfg.Momentum
	return &EmbedMatMulA{cfg: cfg, peer: p, SA: st.S, TB: st.T, UA: st.U, VB: st.V,
		momSA: momentum{mu, st.MomS}, momTB: momentum{mu, st.MomT},
		momUA: momentum{mu, st.MomU}, momVB: momentum{mu, st.MomV}}, nil
}

// LoadEmbedMatMulB restores Party B's half onto a live peer session.
func LoadEmbedMatMulB(r io.Reader, p *protocol.Peer, cfg EmbedConfig) (*EmbedMatMulB, error) {
	st, err := loadEmbed(r, "EmbedMatMulB", cfg, cfg.VocabB, cfg.FieldsB, cfg.VocabA, cfg.FieldsA)
	if err != nil {
		return nil, err
	}
	mu := cfg.Momentum
	return &EmbedMatMulB{cfg: cfg, peer: p, SB: st.S, TA: st.T, UB: st.U, VA: st.V,
		momSB: momentum{mu, st.MomS}, momTA: momentum{mu, st.MomT},
		momUB: momentum{mu, st.MomU}, momVA: momentum{mu, st.MomV}}, nil
}

// Wire layouts. Every ciphertext matrix of the layer travels in the lane
// format its encryptor's options choose, blocked by the layer's geometry so
// that each homomorphic product lands in the layout its sum needs:
//
//   - tables ⟦T⟧ (vocab×dim): one block per row, so a lookup result and the
//     table gradient are dim-blocked (Block = Dim);
//   - weight mirrors ⟦U⟧, ⟦V⟧ (fields·dim×out): one block per row, lanes
//     along out — the forward products x·⟦V⟧ take their lanes from them, and
//     both factors of those are mask-sized, so the lanes are wide
//     (hetensor.Layout.Wide);
//   - ⟦Vᵀ⟧ (out×fields·dim, Block = Dim) beside every ⟦V⟧: lanes cannot be
//     transposed under encryption, and the backward's ∇Z·⟦V⟧ᵀ is then the
//     plain left product ∇Z·⟦Vᵀ⟧, dim-blocked like the rest of ⟦∇E⟧;
//   - ⟦∇Z⟧ twice: lanes along out for the two Xᵀ·⟦∇Z⟧ products, and one
//     value per ciphertext (Block = 1) for the cross term ⟦∇Z⟧·Uᵀ — there
//     the ciphertext is the left factor, a lane of it would multiply every
//     lane of the result, so the products are taken per cell and packed
//     afterwards (hetensor.MulRightTransposeAdd);
//   - the plaintext-computed terms of ⟦∇E⟧ (∇Z·V_Aᵀ, ∇Z·U_Bᵀ …): Block = Dim.

// sendMirror ships a weight piece for the peer's forward product, in wide
// lanes: that product multiplies the piece by a mask-sized share.
func sendMirror(p *protocol.Peer, w *tensor.Dense) {
	l := lanes(0)
	l.Wide = true
	p.EncryptAndSend(w, 1, l)
}

// sendV ships a V piece both ways up: ⟦V⟧ and ⟦Vᵀ⟧.
func (c EmbedConfig) sendV(p *protocol.Peer, v *tensor.Dense) {
	sendMirror(p, v)
	sendPacked(p, v.Transpose(), 1, c.Dim)
}

// exchangeTables refreshes the encrypted table mirrors: T_B changed at A,
// T_A at B.
func (l *EmbedMatMulA) exchangeTables() {
	sendPacked(l.peer, l.TB, 1, 0)
	l.encTA = l.peer.RecvMatrix()
}

func (l *EmbedMatMulB) exchangeTables() {
	l.encTB = l.peer.RecvMatrix()
	sendPacked(l.peer, l.TA, 1, 0)
}

// exchangeWeights refreshes the encrypted weight mirrors after an update.
func (l *EmbedMatMulA) exchangeWeights() {
	p := l.peer
	sendMirror(p, l.UA)
	l.cfg.sendV(p, l.VB)
	l.encVA, l.encVAT = p.RecvMatrix(), p.RecvMatrix()
	l.encUB = p.RecvMatrix()
}

func (l *EmbedMatMulB) exchangeWeights() {
	p := l.peer
	l.encUA = p.RecvMatrix()
	l.encVB, l.encVBT = p.RecvMatrix(), p.RecvMatrix()
	l.cfg.sendV(p, l.VA)
	sendMirror(p, l.UB)
}

// embedStage runs Fig. 7 lines 5–7 for one party: lookup over the encrypted
// peer-generated piece ⟦T⟧ with the local indices, convert to shares, and
// assemble ψ = ε + lkup(S, X). It returns ψ (this party's share of its own
// E) and the peer's complementary share E' − ψ' obtained from HE2SS. A
// packed table's per-row lane layout carries through the batch×(fields·dim)
// lookup result (Block = dim), so its conversion masks K lanes per blinding
// exponentiation.
func embedStage(p *protocol.Peer, encT *hetensor.Matrix, s *tensor.Dense, x *tensor.IntMatrix) (psi, otherShare *tensor.Dense) {
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
	// Line 12: ⟦∇Z⟧ in B's lanes and per value, and ⟦∇Z·V_Aᵀ⟧, under B's key.
	// The first copy is folded as it arrives into both gradient products of
	// lines 13–20 at once, ψ_Aᵀ∇Z stacked on (E_B−ψ_B)ᵀ∇Z: they share their
	// bases, so one pass builds one set of window tables for the two.
	encGradW := recvGradAcc(p, DenseFeatures{tensor.HStack(l.psiA, l.ebmPsi)})
	gradZCells := p.RecvMatrix()
	encGradZVAT := p.RecvMatrix()

	// Line 21: ⟦∇E_A⟧ = ⟦∇Z⟧·U_Aᵀ + ⟦∇Z·V_Aᵀ⟧ must use the forward-pass U_A,
	// so it is computed before the MatMul-part update below touches U_A.
	encGradEA := hetensor.MulRightTransposeAdd(encGradZVAT, gradZCells, l.UA)

	// --- Backward of the MatMul part (lines 13–20) ---
	// ∇W_A = ψ_Aᵀ∇Z + (E_A−ψ_A)ᵀ∇Z and ∇W_B = ψ_Bᵀ∇Z + (E_B−ψ_B)ᵀ∇Z; A
	// computed the first term of the one and the second of the other encrypted.
	phi, xi := convertHalves(p, encGradW, l.psiA.Cols)
	l.momUA.step(l.UA, phi, l.cfg.LR)
	l.momVB.step(l.VB, xi, l.cfg.LR)

	l.exchangeWeights() // U_A changed here; V_A at B
	l.backwardEmbed(encGradEA)
}

// convertHalves converts the top rows of a stacked product and the rest to
// shares, in that order: two conversions with a mask each, as if the halves
// had been computed apart.
func convertHalves(p *protocol.Peer, m *hetensor.Matrix, top int) (*tensor.Dense, *tensor.Dense) {
	first := p.HE2SSSend(m.RowSlice(0, top))
	return first, p.HE2SSSend(m.RowSlice(top, m.Rows))
}

// backwardEmbed is the Embed part of A's backward (Fig. 7 lines 22–26).
func (l *EmbedMatMulA) backwardEmbed(encGradEA *hetensor.Matrix) {
	p := l.peer
	encGradQA := hetensor.LookupBackwardRows(encGradEA, l.x, l.cfg.VocabA, l.cfg.Dim)
	rhoA := p.HE2SSSend(encGradQA) // B receives ∇Q_A − ρ_A
	l.momSA.step(l.SA, rhoA, l.cfg.LR)

	// Symmetric for Q_B: B ships the masked ⟦∇Q_B − ρ_B⟧ under A's key.
	gradTBshare := p.HE2SSRecv() // ∇Q_B − ρ_B
	l.momTB.step(l.TB, gradTBshare, l.cfg.LR)

	l.exchangeTables()
	l.x, l.psiA, l.ebmPsi = nil, nil, nil
}

// Backward runs Party B's backward pass given the top model's ∇Z.
func (l *EmbedMatMulB) Backward(gradZ *tensor.Dense) {
	p := l.peer
	// Line 12: encrypt and ship ∇Z (in lanes and per value) and ∇Z·V_Aᵀ under
	// B's own key. The product is computed in plaintext (B holds both
	// operands) and encrypted at scale 2 so A can add it to its scale-2
	// ⟦∇Z⟧·U_Aᵀ term.
	sendPacked(p, gradZ, 1, 0)
	sendPacked(p, gradZ, 1, 1)
	sendPacked(p, gradZ.MatMulTranspose(l.VA), 2, l.cfg.Dim)

	// The Embed-part derivative ⟦∇E_B⟧ = ∇Z·⟦V_Bᵀ⟧ + ∇Z·U_Bᵀ must use the
	// forward-pass U_B and ⟦V_B⟧, so both terms are computed before the
	// MatMul-part update and refresh below replace them. The plaintext term
	// is added without fresh randomness: the sum stays at B until the table
	// gradient's conversion re-randomizes every ciphertext of it.
	encGradEB := hetensor.MulLeft(gradZ, l.encVBT).AddPlain(gradZ.MatMulTranspose(l.UB))

	// --- Backward of the MatMul part ---
	// ∇W_A − φ = (E_A−ψ_A)ᵀ∇Z + (ψ_Aᵀ∇Z − φ).
	gradWAshare := l.eamPsi.TransposeMatMul(gradZ).Add(p.HE2SSRecv())
	l.momVA.step(l.VA, gradWAshare, l.cfg.LR)

	// ∇W_B − ξ = ψ_Bᵀ∇Z + ((E_B−ψ_B)ᵀ∇Z − ξ).
	gradWBshare := l.psiB.TransposeMatMul(gradZ).Add(p.HE2SSRecv())
	l.momUB.step(l.UB, gradWBshare, l.cfg.LR)

	l.exchangeWeights()
	l.backwardEmbed(encGradEB)
}

// backwardEmbed is the Embed part of B's backward.
func (l *EmbedMatMulB) backwardEmbed(encGradEB *hetensor.Matrix) {
	p := l.peer
	// B's share of ∇Q_A arrives masked from A.
	gradTAshare := p.HE2SSRecv() // ∇Q_A − ρ_A
	l.momTA.step(l.TA, gradTAshare, l.cfg.LR)

	encGradQB := hetensor.LookupBackwardRows(encGradEB, l.x, l.cfg.VocabB, l.cfg.Dim)
	rhoB := p.HE2SSSend(encGradQB) // A receives ∇Q_B − ρ_B
	l.momSB.step(l.SB, rhoB, l.cfg.LR)

	l.exchangeTables()
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
