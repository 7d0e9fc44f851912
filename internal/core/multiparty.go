package core

import (
	"fmt"

	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// The k-session MatMul source layer (paper Appendix C, Algorithm 3): one
// Party B and k Party A's. Party B's weights decompose across the sessions,
// W_B = Σᵢ (U_B(i) + V_B(i)) with V_B(i) managed by the i-th Party A, and
// each A(i)'s weights are shared with B exactly as in the two-party layer.
// The forward pass runs the two-party sub-protocol against every A(i) and
// sums the partial activations, so
//
//	Z = Σᵢ X_A(i)·W_A(i) + X_B·W_B.
//
// Each Party A runs the ordinary two-party A-half against its own session —
// Algorithm 3 requires no changes on the A side beyond agreeing on
// Config.GroupParties (which scales its V_B(i) draw by 1/√k). Party B drives
// all k sessions concurrently through protocol.Group.ForEach; aggregation
// (the activation sum, the 1/k gradient fan-in to the U_B pieces) is
// deterministic in session order regardless of scheduling. At k = 1 every
// one of these is the identity — one session, a sum of one term, a gradient
// scaled by 1/1 — so the two-party layer is this layer over a 1-session
// group, bit for bit, and nothing above core needs a second path for it.

// sessionB is what the group layer drives per session: the dense or the
// sparse two-party B-half.
type sessionB interface {
	forwardPart(x Numeric) *tensor.Dense
	backwardMulti(gradFull, gradLocal *tensor.Dense)
	pieces() (ub, va *tensor.Dense)
}

func (l *MatMulB) forwardPart(x Numeric) *tensor.Dense { return l.Forward(x) }
func (l *MatMulB) pieces() (ub, va *tensor.Dense)      { return l.UB, l.VA }

func (l *SparseMatMulB) forwardPart(x Numeric) *tensor.Dense {
	return l.Forward(x.(SparseFeatures).M)
}
func (l *SparseMatMulB) pieces() (ub, va *tensor.Dense) { return l.UB, l.VA }

// MultiMatMulB is Party B's half of the k-session MatMul layer: one
// two-party B-half per session — all dense or all sparse — driven
// concurrently.
type MultiMatMulB struct {
	g    *protocol.Group
	subs []sessionB // session i's B-half, holding U_B(i) and V_A(i)

	// parties is the session count of the whole run. It exceeds g.K() in a
	// shard worker, whose group holds a slice of the run's sessions: the W_B
	// pieces and the gradient fan-in both scale by the global count, so every
	// worker's pieces and updates match what the single-process run computes.
	parties int
}

// NewMultiMatMulB initializes Party B against the group's sessions, with
// dense halves or (sparse) the Table-5 on-demand-row halves. inAs[i] is
// A(i)'s feature dimensionality. cfg.GroupParties is the run's global
// session count when the group is a shard worker's slice of it; 0 means the
// group is the whole run. Must run concurrently with NewMatMulA or
// NewSparseMatMulA (same cfg, GroupParties = the global count) on every
// session's feature party.
func NewMultiMatMulB(g *protocol.Group, cfg Config, inAs []int, inB int, sparse bool) *MultiMatMulB {
	if len(inAs) != g.K() {
		panic(fmt.Sprintf("core: NewMultiMatMulB got %d feature widths for %d sessions", len(inAs), g.K()))
	}
	if cfg.GroupParties == 0 {
		cfg.GroupParties = g.K()
	}
	m := &MultiMatMulB{g: g, subs: make([]sessionB, g.K()), parties: cfg.GroupParties}
	g.ForEach(func(i int, p *protocol.Peer) {
		if sparse {
			m.subs[i] = NewSparseMatMulB(p, cfg, inAs[i], inB)
		} else {
			m.subs[i] = NewMatMulB(p, cfg, inAs[i], inB)
		}
	})
	return m
}

// NewMultiMatMulBFrom assembles the layer from per-session dense halves
// restored by LoadMatMulB — the checkpoint-restore constructor. subs[i] must
// be attached to the group's session-i peer. The run's global session count
// is the one the halves were saved under, never less than the group's own.
func NewMultiMatMulBFrom(g *protocol.Group, subs []*MatMulB) *MultiMatMulB {
	if len(subs) != g.K() {
		panic(fmt.Sprintf("core: NewMultiMatMulBFrom got %d halves for %d sessions", len(subs), g.K()))
	}
	m := &MultiMatMulB{g: g, subs: make([]sessionB, len(subs)), parties: g.K()}
	for i, sub := range subs {
		m.subs[i] = sub
		if sub.cfg.GroupParties > m.parties {
			m.parties = sub.cfg.GroupParties
		}
	}
	return m
}

// Forward runs the k sub-protocol forwards concurrently and aggregates
// Z = Σᵢ X_A(i)·W_A(i) + X_B·W_B, summing in session order so the float sum
// is deterministic however ForEach scheduled the sessions. Sessions the
// group has marked lost (ContinueOnLoss) are skipped: their partial
// activations drop out of the sum, exactly the aggregation a deployment
// that lost a feature party can still compute (ForEach guarantees at least
// one live session).
func (m *MultiMatMulB) Forward(x Numeric) *tensor.Dense {
	return tensor.SumInOrder(m.ForwardParts(x))
}

// ForwardParts runs the k sub-forwards concurrently and returns the
// *unsummed* per-session partials, in session order — the shard worker's
// forward: float addition is not associative, so shards ship per-session
// matrices and the root folds all of them in global session order with the
// same tensor.SumInOrder. Lost sessions leave nils.
func (m *MultiMatMulB) ForwardParts(x Numeric) []*tensor.Dense {
	zs := make([]*tensor.Dense, len(m.subs))
	m.g.ForEach(func(i int, _ *protocol.Peer) { zs[i] = m.subs[i].forwardPart(x) })
	return zs
}

// Backward fans ∇Z out to every session concurrently. Each session's A gets
// the true ⟦∇Z⟧ (its W_A(i) block owns its columns alone), while each local
// U_B(i) updates with ∇Z/k, k the run's live session count, so the k updates
// of W_B = Σᵢ(U_B(i)+V_B(i)) sum to exactly one SGD step — the linearity
// that makes the k-party layer lossless against the two-party one, and still
// one step on the survivors after a session loss.
func (m *MultiMatMulB) Backward(gradZ *tensor.Dense) {
	scaled := gradZ.Scale(1 / float64(m.parties-m.g.LostCount()))
	m.g.ForEach(func(i int, _ *protocol.Peer) { m.subs[i].backwardMulti(gradZ, scaled) })
}

// Sub returns session i's dense two-party B-half, nil in a sparse layer.
// Checkpointing and the serve runtime walk the per-session halves through it.
func (m *MultiMatMulB) Sub(i int) *MatMulB {
	sub, _ := m.subs[i].(*MatMulB)
	return sub
}

// K returns the number of sessions (feature parties) this layer drives.
func (m *MultiMatMulB) K() int { return len(m.subs) }

// ResumeExchange re-runs the initialization exchange of encrypted weight
// pieces on every session after a checkpoint restore. Must run concurrently
// with ResumeExchange on every A(i).
func (m *MultiMatMulB) ResumeExchange() {
	m.g.ForEach(func(i int, _ *protocol.Peer) { m.Sub(i).ResumeExchange() })
}

// DebugMultiWeightsB reconstructs W_B = Σᵢ (U_B(i) + V_B(i)) given every
// A(i)'s held piece V_B(i). Test use only.
func DebugMultiWeightsB(b *MultiMatMulB, vbs []*tensor.Dense) *tensor.Dense {
	w := tensor.NewDense(vbs[0].Rows, vbs[0].Cols)
	for i, sub := range b.subs {
		ub, _ := sub.pieces()
		w.AddInPlace(ub)
		w.AddInPlace(vbs[i])
	}
	return w
}

// DebugMultiWeightsA reconstructs W_A(i) from the i-th Party A's piece U_A.
// Test use only.
func DebugMultiWeightsA(b *MultiMatMulB, ua *tensor.Dense, i int) *tensor.Dense {
	_, va := b.subs[i].pieces()
	return ua.Add(va)
}
