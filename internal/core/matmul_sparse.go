package core

import (
	"sort"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// Sparse MatMul source layer.
//
// The dense protocol of matmul.go exchanges the full encrypted weight pieces,
// which is intractable for the paper's high-dimensional workloads (avazu-app
// has 10⁶ features, the industrial dataset 10⁷). This file implements the
// sparse variant that gives BlindFL its Table 5 results: each mini-batch
// only touches the weight coordinates whose feature columns have non-zeros,
// so
//
//   - encrypted weight rows ⟦V[k]⟧ are materialized on demand by the piece
//     holder and cached by the consumer;
//   - the homomorphic gradient ⟦∇W[touched]⟧ and its HE2SS conversion cover
//     only the touched rows;
//   - only the updated rows of ⟦V_A⟧ are re-encrypted after the step.
//
// The touched-coordinate sets cross the wire in the clear. This reveals
// which of a party's (privately indexed) feature columns were active in the
// batch — the inherent cost of sparsity-exploiting VFL that the paper
// accepts in exchange for its >50× speedups; the coordinate identities still
// say nothing about feature values, weights, activations, or labels.

// SparseMatMulA is Party A's half of the sparse MatMul source layer.
type SparseMatMulA struct {
	cfg  Config
	peer *protocol.Peer

	UA *tensor.Dense // A's piece of W_A (InA×Out)
	VB *tensor.Dense // A's piece of W_B (InB×Out), served to B row by row

	cacheVA *rowCache // lazily materialized ⟦V_A⟧ rows under B's key

	momUA momentum

	x       *tensor.CSR
	touched []int
}

// SparseMatMulB is Party B's half of the sparse MatMul source layer.
type SparseMatMulB struct {
	cfg  Config
	peer *protocol.Peer

	UB *tensor.Dense // B's piece of W_B (InB×Out)
	VA *tensor.Dense // B's piece of W_A (InA×Out)

	cacheVB *rowCache // lazily materialized ⟦V_B⟧ rows under A's key

	momUB momentum
	momVA momentum

	x *tensor.CSR
}

// rowCache holds encrypted weight rows indexed by coordinate.
type rowCache struct {
	rows  int
	cols  int
	pk    *paillier.PublicKey
	cache map[int][]*paillier.Ciphertext
}

func newRowCache(rows, cols int) *rowCache {
	return &rowCache{rows: rows, cols: cols, cache: make(map[int][]*paillier.Ciphertext)}
}

// missing returns the touched coordinates not yet cached.
func (rc *rowCache) missing(touched []int) []int {
	var out []int
	for _, k := range touched {
		if _, ok := rc.cache[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// fill stores the received cipher rows for the given coordinates.
func (rc *rowCache) fill(idx []int, m *hetensor.CipherMatrix) {
	rc.pk = m.PK
	for i, k := range idx {
		rc.cache[k] = m.Row(i)
	}
}

// matrixFor assembles a full-height CipherMatrix view whose touched rows
// point at cached ciphertexts; untouched rows stay nil and must not be
// accessed (the sparse matmuls index only non-zero columns).
func (rc *rowCache) matrixFor() *hetensor.CipherMatrix {
	m := &hetensor.CipherMatrix{Rows: rc.rows, Cols: rc.cols, Scale: 1, PK: rc.pk,
		C: make([]*paillier.Ciphertext, rc.rows*rc.cols)}
	for k, row := range rc.cache {
		copy(m.Row(k), row)
	}
	return m
}

// touchedCols returns the sorted union of non-zero column indices of x.
func touchedCols(x *tensor.CSR) []int {
	seen := make(map[int]bool)
	for _, k := range x.ColIdx {
		seen[k] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// NewSparseMatMulA initializes Party A's half. Unlike the dense layer no
// encrypted pieces are exchanged up front; rows are served on demand.
func NewSparseMatMulA(p *protocol.Peer, cfg Config, inA, inB int) *SparseMatMulA {
	cfg.apply(p)
	s := cfg.initScale()
	return &SparseMatMulA{
		cfg: cfg, peer: p,
		UA:      tensor.RandDense(p.Rng, inA, cfg.Out, s),
		VB:      tensor.RandDense(p.Rng, inB, cfg.Out, s/cfg.groupPieceDiv()),
		cacheVA: newRowCache(inA, cfg.Out),
		momUA:   momentum{mu: cfg.Momentum},
	}
}

// NewSparseMatMulB initializes Party B's half.
func NewSparseMatMulB(p *protocol.Peer, cfg Config, inA, inB int) *SparseMatMulB {
	cfg.apply(p)
	s := cfg.initScale()
	return &SparseMatMulB{
		cfg: cfg, peer: p,
		UB:      tensor.RandDense(p.Rng, inB, cfg.Out, s/cfg.groupPieceDiv()),
		VA:      tensor.RandDense(p.Rng, inA, cfg.Out, s),
		cacheVB: newRowCache(inB, cfg.Out),
		momUB:   momentum{mu: cfg.Momentum},
		momVA:   momentum{mu: cfg.Momentum},
	}
}

// sparseForwardHalf is forwardHalf over on-demand cipher rows: request the
// missing ⟦V⟧ rows, serve the peer's request against the piece this party
// holds for the peer, then run the masked-product exchange on the cached
// rows. Every transfer of this layer is a handful of touched rows, so all of
// them go unchunked.
func sparseForwardHalf(p *protocol.Peer, x *tensor.CSR, touched []int, u, servePiece *tensor.Dense, cache *rowCache) *tensor.Dense {
	defer p.Unchunked()()
	missing := cache.missing(touched)
	p.Send(missing)
	peerMissing := p.RecvInts()
	p.SendMatrix(hetensor.EncryptRows(&p.SK.PublicKey, servePiece, peerMissing, 1))
	cache.fill(missing, recvCipher(p))
	return forwardHalf(p, SparseFeatures{x}, u, cache.matrixFor())
}

// Forward runs Party A's sparse forward pass.
func (l *SparseMatMulA) Forward(x *tensor.CSR) {
	l.x = x
	l.touched = touchedCols(x)
	zA := sparseForwardHalf(l.peer, x, l.touched, l.UA, l.VB, l.cacheVA)
	l.peer.Send(zA)
}

// Forward runs Party B's sparse forward pass and returns Z.
func (l *SparseMatMulB) Forward(x *tensor.CSR) *tensor.Dense {
	l.x = x
	zB := sparseForwardHalf(l.peer, x, touchedCols(x), l.UB, l.VA, l.cacheVB)
	zA := l.peer.RecvDense()
	return zA.Add(zB)
}

// Backward runs Party A's sparse backward pass: the gradient, its masking,
// the update of U_A, and the cache refresh all touch only the batch's
// active coordinates.
func (l *SparseMatMulA) Backward() {
	p := l.peer
	defer p.Unchunked()()
	encGradSub := hetensor.TransposeMulLeftCSRSubset(l.x, recvCipher(p), l.touched)
	p.Send(l.touched)
	phi := p.HE2SSSend(encGradSub) // len(touched)×Out share

	// Sparse momentum update of the touched rows of U_A.
	l.momUA.stepRows(l.UA, phi, l.touched, l.cfg.LR)

	// Refresh the cache for the rows B just updated.
	l.cacheVA.fill(l.touched, recvCipher(p))

	l.x, l.touched = nil, nil
}

// Backward runs Party B's sparse backward pass.
func (l *SparseMatMulB) Backward(gradZ *tensor.Dense) { l.backwardMulti(gradZ, gradZ) }

// backwardMulti is Backward with separate local/cross-party gradients, the
// sparse counterpart of MatMulB.backwardMulti: a k-session group passes ∇Z/k
// as gradLocal so the k U_B(i) updates sum to one step of W_B, while the
// touched-coordinate exchange and V_A update see the true ∇Z.
func (l *SparseMatMulB) backwardMulti(gradFull, gradLocal *tensor.Dense) {
	p := l.peer

	// Local sparse update of U_B: only B's own touched coordinates move.
	touchedB := touchedCols(l.x)
	gradUB := l.x.TransposeMatMul(gradLocal) // rows outside touchedB are zero
	l.momUB.stepRows(l.UB, gradUB.GatherRows(touchedB), touchedB, l.cfg.LR)

	defer p.Unchunked()()
	p.EncryptAndSend(gradFull, 1, hetensor.Layout{})
	touchedA := p.RecvInts()
	gradVAshare := p.HE2SSRecv() // len(touchedA)×Out: ∇W_A[touched] − φ
	l.momVA.stepRows(l.VA, gradVAshare, touchedA, l.cfg.LR)

	// Re-encrypt only the updated rows of V_A for A's cache.
	p.SendMatrix(hetensor.EncryptRows(&p.SK.PublicKey, l.VA, touchedA, 1))
	l.x = nil
}

// DebugUA exposes Party A's share of W_A for the Fig. 9/11 privacy
// experiments (A predicting with X_A·U_A must be a random guess).
func (l *SparseMatMulA) DebugUA() *tensor.Dense { return l.UA }

// DebugSparseWeightsA reconstructs W_A. Test use only.
func DebugSparseWeightsA(a *SparseMatMulA, b *SparseMatMulB) *tensor.Dense { return a.UA.Add(b.VA) }

// DebugSparseWeightsB reconstructs W_B. Test use only.
func DebugSparseWeightsB(a *SparseMatMulA, b *SparseMatMulB) *tensor.Dense { return b.UB.Add(a.VB) }
