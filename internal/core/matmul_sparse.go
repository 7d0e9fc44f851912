package core

import (
	"sort"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
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
//     holder and cached by the consumer: invalidate, fetch on touch. A row of
//     ⟦V_A⟧ that a step updates is dropped from A's cache — a stale row is a
//     missing row — and re-encrypted only if and when a later batch touches
//     it; ⟦V_B⟧ never changes, and forward-only passes invalidate nothing;
//   - the homomorphic gradient ⟦∇W[touched]⟧ and its HE2SS conversion cover
//     only the touched rows;
//   - both HE2SS conversions of the layer — the forward product ⟦X·V⟧ and
//     the touched-row gradient — are always lane-packed across rows
//     (hetensor.PackFlat): their rows are Out values wide, far narrower than
//     a ciphertext, so the cells travel and decrypt K at a time as one row
//     and the share is reshaped on arrival. Masks are drawn in the same
//     row-major order either way, so the shares are those of the unpacked
//     conversion bit for bit.
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

// rowCache holds encrypted weight rows indexed by coordinate, and an empty
// view of the last fill that gathered rows take their key and lanes from.
type rowCache struct {
	cols  int
	empty *hetensor.Matrix
	cache map[int][]*paillier.Ciphertext
}

func newRowCache(cols int) *rowCache {
	return &rowCache{cols: cols, cache: make(map[int][]*paillier.Ciphertext)}
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
func (rc *rowCache) fill(idx []int, m *hetensor.Matrix) {
	rc.empty = m.RowSlice(0, 0)
	for i, k := range idx {
		rc.cache[k] = m.Row(i)
	}
}

// drop forgets the given rows: their holder is about to change them.
func (rc *rowCache) drop(idx []int) {
	for _, k := range idx {
		delete(rc.cache, k)
	}
}

// gather assembles the compact len(touched)×cols matrix whose row i is the
// cached row touched[i] — the operand for a batch renumbered by
// tensor.CSR.CompactCols, sized by the batch and not by the feature space.
func (rc *rowCache) gather(touched []int) *hetensor.Matrix {
	m := rc.empty.RowSlice(0, 0)
	m.Rows, m.C = len(touched), make([]*paillier.Ciphertext, 0, len(touched)*rc.cols)
	for _, k := range touched {
		m.C = append(m.C, rc.cache[k]...)
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

// he2ssSendFlat is HE2SSSend over v's cells (one value per ciphertext)
// packed as one row; the kept mask comes back in v's shape.
func he2ssSendFlat(p *protocol.Peer, v *hetensor.Matrix) *tensor.Dense {
	phi := p.HE2SSSend(hetensor.PackFlat(v))
	phi.Rows, phi.Cols = v.Rows, v.Cols
	return phi
}

// he2ssRecvFlat is the other half: the decrypted row as the rows×cols share.
func he2ssRecvFlat(p *protocol.Peer, rows, cols int) *tensor.Dense {
	d := p.HE2SSRecv()
	if len(d.Data) != rows*cols {
		p.Fail("recv: %w: a conversion of %d values, want %d×%d", transport.ErrCorrupt, len(d.Data), rows, cols)
	}
	d.Rows, d.Cols = rows, cols
	return d
}

// NewSparseMatMulA initializes Party A's half. Unlike the dense layer no
// encrypted pieces are exchanged up front; rows are served on demand.
func NewSparseMatMulA(p *protocol.Peer, cfg Config, inA, inB int) *SparseMatMulA {
	s := cfg.initScale()
	return &SparseMatMulA{
		cfg: cfg, peer: p,
		UA:      tensor.RandDense(p.Rng, inA, cfg.Out, s),
		VB:      tensor.RandDense(p.Rng, inB, cfg.Out, s/cfg.groupPieceDiv()),
		cacheVA: newRowCache(cfg.Out),
		momUA:   momentum{mu: cfg.Momentum},
	}
}

// NewSparseMatMulB initializes Party B's half.
func NewSparseMatMulB(p *protocol.Peer, cfg Config, inA, inB int) *SparseMatMulB {
	s := cfg.initScale()
	return &SparseMatMulB{
		cfg: cfg, peer: p,
		UB:      tensor.RandDense(p.Rng, inB, cfg.Out, s/cfg.groupPieceDiv()),
		VA:      tensor.RandDense(p.Rng, inA, cfg.Out, s),
		cacheVB: newRowCache(cfg.Out),
		momUB:   momentum{mu: cfg.Momentum},
		momVA:   momentum{mu: cfg.Momentum},
	}
}

// sparseForwardHalf is forwardHalf over on-demand cipher rows: request the
// missing ⟦V⟧ rows, serve the peer's request against the piece this party
// holds for the peer, then run the masked-product exchange on the batch's
// cached rows. The fetched rows are an assembled matrix and go in one chunk;
// the conversions stream like every producing send.
func sparseForwardHalf(p *protocol.Peer, x *tensor.CSR, touched []int, u, servePiece *tensor.Dense, cache *rowCache) *tensor.Dense {
	missing := cache.missing(touched)
	p.Send(missing)
	peerMissing := recvIndices(p, servePiece.Rows)
	p.SendMatrix(hetensor.EncryptRows(&p.SK.PublicKey, servePiece, peerMissing, 1))
	cache.fill(missing, recvCipher(p, len(missing), cache.cols))
	prod := hetensor.MulLeftCSR(x.CompactCols(touched), cache.gather(touched)) // ⟦x·V⟧, scale 2
	eps := he2ssSendFlat(p, prod)
	other := he2ssRecvFlat(p, x.Rows, u.Cols)
	z := x.MatMul(u)
	z.AddInPlace(eps)
	z.AddInPlace(other)
	return z
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
// the update of U_A, and the cache invalidation all touch only the batch's
// active coordinates. It ends on a receive — the ack of the masked gradient,
// A's last send of the step — never on the send itself: a NACK for that
// stream must find A still listening, or B would be left with a V_A update
// it can neither repair nor report.
func (l *SparseMatMulA) Backward() {
	p := l.peer
	// ⟦∇W_A[touched]⟧: the transpose product over the batch renumbered to
	// its touched columns, one row per touched coordinate.
	encGradZ := recvCipher(p, l.x.Rows, l.cfg.Out)
	encGradSub := hetensor.TransposeMulCSRAcc(encGradZ.NewAcc(len(l.touched)), l.x.CompactCols(l.touched), 0, encGradZ)
	p.Send(l.touched)
	phi := he2ssSendFlat(p, encGradSub) // len(touched)×Out share

	// Sparse momentum update of the touched rows of U_A.
	l.momUA.stepRows(l.UA, phi, l.touched, l.cfg.LR)

	// B is about to update these rows of V_A: fetch them again on touch.
	l.cacheVA.drop(l.touched)
	p.Flush()

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

	p.EncryptAndSend(gradFull, 1, hetensor.Layout{})
	touchedA := recvIndices(p, l.VA.Rows)
	gradVAshare := he2ssRecvFlat(p, len(touchedA), l.cfg.Out) // ∇W_A[touched] − φ
	l.momVA.stepRows(l.VA, gradVAshare, touchedA, l.cfg.LR)
	l.x = nil
}

// DebugUA exposes Party A's share of W_A for the Fig. 9/11 privacy
// experiments (A predicting with X_A·U_A must be a random guess).
func (l *SparseMatMulA) DebugUA() *tensor.Dense { return l.UA }

// DebugSparseWeightsA reconstructs W_A. Test use only.
func DebugSparseWeightsA(a *SparseMatMulA, b *SparseMatMulB) *tensor.Dense { return a.UA.Add(b.VA) }

// DebugSparseWeightsB reconstructs W_B. Test use only.
func DebugSparseWeightsB(a *SparseMatMulA, b *SparseMatMulB) *tensor.Dense { return b.UB.Add(a.VB) }
