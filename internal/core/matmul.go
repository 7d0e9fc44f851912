package core

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// The MatMul federated source layer (paper Fig. 6) computes
//
//	Z = X_A·W_A + X_B·W_B
//
// with W⋄ = U⋄ + V⋄ secret-shared between the parties: U⋄ lives at party ⋄
// and V⋄ at the other party, which also ships an encrypted copy ⟦V⋄⟧ under
// its own key to party ⋄ at initialization. Forward and backward follow the
// figure line by line; every cross-party message is a ciphertext or an
// additively masked share.

// MatMulA is Party A's half of the MatMul source layer.
type MatMulA struct {
	cfg  Config
	peer *protocol.Peer

	UA *tensor.Dense // A's piece of W_A (InA×Out)
	VB *tensor.Dense // A's piece of W_B (InB×Out)

	encVA *hetensor.Matrix // ⟦V_A⟧ under B's key, refreshed per step

	momUA momentum
	momVB momentum

	x Numeric // mini-batch cached between Forward and Backward
}

// MatMulB is Party B's half of the MatMul source layer.
type MatMulB struct {
	cfg  Config
	peer *protocol.Peer

	UB *tensor.Dense // B's piece of W_B (InB×Out)
	VA *tensor.Dense // B's piece of W_A (InA×Out)

	encVB *hetensor.Matrix // ⟦V_B⟧ under A's key, refreshed per step

	momUB momentum
	momVA momentum

	x Numeric
}

// NewMatMulA initializes Party A's half (Fig. 6 lines 1–4): A draws U_A and
// V_B, ships ⟦V_B⟧ under A's key to B, and receives ⟦V_A⟧ under B's key.
// Must run concurrently with NewMatMulB on the other side.
func NewMatMulA(p *protocol.Peer, cfg Config, inA, inB int) *MatMulA {
	l := &MatMulA{
		cfg: cfg, peer: p,
		UA:    tensor.RandDense(p.Rng, inA, cfg.Out, initScale),
		VB:    tensor.RandDense(p.Rng, inB, cfg.Out, initScale/cfg.groupPieceDiv()),
		momUA: momentum{mu: cfg.Momentum},
		momVB: momentum{mu: cfg.Momentum},
	}
	l.ResumeExchange()
	return l
}

// NewMatMulB initializes Party B's half, symmetric to NewMatMulA.
func NewMatMulB(p *protocol.Peer, cfg Config, inA, inB int) *MatMulB {
	l := &MatMulB{
		cfg: cfg, peer: p,
		UB:    tensor.RandDense(p.Rng, inB, cfg.Out, initScale/cfg.groupPieceDiv()),
		VA:    tensor.RandDense(p.Rng, inA, cfg.Out, initScale),
		momUB: momentum{mu: cfg.Momentum},
		momVA: momentum{mu: cfg.Momentum},
	}
	l.ResumeExchange()
	return l
}

// ResumeExchange runs the initialization exchange of encrypted weight pieces
// from the plaintext V pieces — at construction, and again after a
// checkpoint restore: A ships a fresh ⟦V_B⟧ under its own key and receives
// ⟦V_A⟧ under B's key (a checkpoint holds no ciphertexts: Paillier keys are
// per-session, so a saved copy could not decrypt after a restart). Fresh
// encryption randomness does not change the decrypted values, so a resumed
// trajectory stays bit-identical. Must run concurrently with ResumeExchange
// on the other side.
func (l *MatMulA) ResumeExchange() {
	sendPacked(l.peer, l.VB, 1, 0)
	l.encVA = l.peer.RecvMatrix()
}

// ResumeExchange is Party B's half of the weight exchange: receive, then
// send.
func (l *MatMulB) ResumeExchange() {
	l.encVB = l.peer.RecvMatrix()
	sendPacked(l.peer, l.VA, 1, 0)
}

// forwardHalf runs lines 5–7 of Fig. 6 for one party: given the local
// features x, the local weight piece u and the encrypted peer-held piece
// ⟦v⟧, it returns this party's share Z' = x·u + ε + (peer's masked piece).
// The masked send and the peer's decryption run chunk-pipelined at the
// default span; over a packed ⟦v⟧ the product, the send and the decryption
// all touch ~K× fewer ciphertexts.
func forwardHalf(p *protocol.Peer, x Numeric, u *tensor.Dense, encV *hetensor.Matrix) *tensor.Dense {
	prod := x.MulCipher(encV) // ⟦x·V⟧ under the peer's key, scale 2
	eps := p.HE2SSSend(prod)  // keep ε, send ⟦x·V − ε⟧
	other := p.HE2SSRecv()    // peer's x̄·V̄ − ε̄, decrypted locally
	z := x.MatMul(u)          // x·U in plaintext
	z.AddInPlace(eps)
	z.AddInPlace(other)
	return z
}

// recvGradAcc receives ⟦∇Z⟧ and returns the accumulated ⟦Xᵀ·∇Z⟧ at scale+1,
// folding each derivative chunk into the accumulator while the peer encrypts
// the next one — the receiver-side half of the compute/communication
// overlap.
func recvGradAcc(p *protocol.Peer, x Numeric) *hetensor.Matrix {
	var acc *hetensor.Matrix
	p.RecvMatrixEach(func(lo int, chunk *hetensor.Matrix) {
		if acc == nil {
			acc = chunk.NewAcc(x.NumCols())
		}
		x.TransposeMulCipherAcc(acc, lo, chunk)
	})
	return acc
}

// Forward runs Party A's forward pass. A learns nothing: its share Z'_A is
// shipped to B and the random masks cancel in the sum (Fig. 6 lines 5–8).
func (l *MatMulA) Forward(x Numeric) {
	l.x = x
	l.peer.Send(forwardHalf(l.peer, x, l.UA, l.encVA))
}

// Forward runs Party B's forward pass and returns the aggregated activation
// Z = X_A·W_A + X_B·W_B, the only forward value B is allowed to see.
func (l *MatMulB) Forward(x Numeric) *tensor.Dense {
	l.x = x
	zB := forwardHalf(l.peer, x, l.UB, l.encVB)
	zA := l.peer.RecvDense()
	return zA.Add(zB)
}

// Backward runs Party A's backward pass (Fig. 6 lines 9–12): A receives
// ⟦∇Z⟧, computes its encrypted gradient ⟦∇W_A⟧ = X_Aᵀ⟦∇Z⟧, converts it to
// an SS pair ⟨φ, ∇W_A−φ⟩, updates U_A with its share φ, and receives the
// refreshed ⟦V_A⟧ for the next step. A never sees ∇Z, ∇W_A, or W_A.
func (l *MatMulA) Backward() {
	encGradWA := recvGradAcc(l.peer, l.x) // ⟦X_Aᵀ∇Z⟧, scale 2
	phi := l.peer.HE2SSSend(encGradWA)    // keep φ, B gets ∇W_A − φ
	l.momUA.step(l.UA, phi, l.cfg.LR)
	l.encVA = l.peer.RecvMatrix() // refreshed ⟦V_A⟧ after B's V_A update
	l.x = nil
}

// Backward runs Party B's backward pass: B updates U_B with the locally
// computable ∇W_B = X_Bᵀ∇Z, ships ⟦∇Z⟧ to A, receives its masked share of
// ∇W_A, updates V_A, and refreshes A's encrypted copy of V_A.
func (l *MatMulB) Backward(gradZ *tensor.Dense) { l.backwardMulti(gradZ, gradZ) }

// backwardMulti is Backward with separate gradients for the local U_B update
// (gradLocal) and the cross-party ⟦∇Z⟧/V_A path (gradFull). The two-party
// Backward passes the same gradient twice; a k-session group scales
// gradLocal by 1/k so the k independent U_B(i) updates sum to one SGD step
// of W_B = Σᵢ(U_B(i)+V_B(i)), while every session's A still sees the true
// ∇Z for its own column block (W_A is partitioned, not summed).
func (l *MatMulB) backwardMulti(gradFull, gradLocal *tensor.Dense) {
	gradWB := l.x.TransposeMatMul(gradLocal)
	l.momUB.step(l.UB, gradWB, l.cfg.LR)

	sendPacked(l.peer, gradFull, 1, 0)
	gradVAshare := l.peer.HE2SSRecv() // ∇W_A − φ
	l.momVA.step(l.VA, gradVAshare, l.cfg.LR)
	sendPacked(l.peer, l.VA, 1, 0) // refresh ⟦V_A⟧ at A
	l.x = nil
}

// DebugWeightsA reconstructs W_A = U_A + V_A from both halves. Test and
// evaluation use only: combining the pieces violates the protocol's privacy
// requirements and must never happen in a deployment.
func DebugWeightsA(a *MatMulA, b *MatMulB) *tensor.Dense { return a.UA.Add(b.VA) }

// DebugWeightsB reconstructs W_B = U_B + V_B. Test use only.
func DebugWeightsB(a *MatMulA, b *MatMulB) *tensor.Dense { return b.UB.Add(a.VB) }

// PieceUA exposes Party A's share of W_A for the privacy experiments
// (Fig. 9 predicts labels with X_A·U_A; Fig. 11 plots U_A against W_A).
func (l *MatMulA) PieceUA() *tensor.Dense { return l.UA }
