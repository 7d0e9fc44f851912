package core

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Serving protocol: the forward-only path blindfl-serve runs over a trained
// MatMul source layer. It differs from the training forward in three ways:
//
//   - Requests are packed K-per-exponent across different users (the result
//     matrices are out×batch, transposed), so a full lane group costs the
//     same homomorphic work as a single request.
//   - The encrypted weight pieces are exchanged unpacked once per serve
//     session (ServeStart) and then never refreshed — no backward pass — so
//     their per-column Straus tables stay warm in the persistent dot-table
//     cache for every subsequent query.
//   - Shares stay exact integers at scale 2: masks are integer lane values
//     that cancel exactly in ℤ at reconstruction, making the served
//     activation deterministic and bit-comparable to a plaintext forward.

// ServeStart re-exchanges the unpacked encrypted weight pieces for serving:
// A ships a fresh ⟦V_B⟧ under its own key and receives ⟦V_A⟧ under B's key.
// Call once per serve session after construction or checkpoint restore (the
// received matrix is minted a fresh table-cache identity); the packed
// training-time copies, absent after a restore, are not used by the serve
// path. Must run concurrently with MatMulB.ServeStart.
func (l *MatMulA) ServeStart() {
	l.peer.EncryptAndSend(l.VB, 1, hetensor.Layout{})
	l.encVA = recvCipher(l.peer, l.UA.Rows, l.UA.Cols)
}

// ServeStart is Party B's half of the serve-session weight exchange.
func (l *MatMulB) ServeStart() {
	l.encVB = recvCipher(l.peer, l.UB.Rows, l.UB.Cols)
	l.peer.EncryptAndSend(l.VA, 1, hetensor.Layout{})
}

// serveHalf runs one party's half of the batched serve forward: homomorphic
// packed product against the peer-held weight piece, integer HE2SS masking,
// and the exact plaintext share (x·U)ᵀ. Returns this party's integer share
// of Zᵀ at scale 2.
//
// With the peer's ANCheck option on, the plaintext share is computed through
// the AN-coded kernel: every cell's big-integer accumulation is re-derived
// mod a small prime and verified before the share joins the decrypted
// homomorphic half — the HE2SS boundary is exactly where a silently corrupt
// share would poison the reconstruction.
func serveHalf(p *protocol.Peer, x, u *tensor.Dense, encV *hetensor.Matrix) *hetensor.BigMatrix {
	if encV == nil || encV.GroupsPerRow() != encV.Cols {
		panic("core: serve forward before ServeStart (no unpacked encrypted weight piece)")
	}
	prod := hetensor.ServeProducts(x, encV)        // ⟦(x·V)ᵀ⟧ under the peer's key, scale 2
	eps, masked := hetensor.ServeMask(p.Rng, prod) // keep integer S, send ⟦(x·V)ᵀ − S⟧
	p.SendMatrix(masked)
	// The peer's product has prod's shape and scale, in this party's lanes.
	got := p.RecvMatrix()
	if want := hetensor.NewPackedMatrix(&p.SK.PublicKey, 0, prod.Cols, prod.Cols, prod.Scale); got.PK != &p.SK.PublicKey ||
		got.Rows != prod.Rows || !got.SameLayout(want) {
		p.Fail("serve: %w: peer's masked product is not a %d×%d packed matrix at scale %d under this party's key",
			transport.ErrCorrupt, prod.Rows, prod.Cols, prod.Scale)
	}
	other := hetensor.DecryptPackedInts(p.SK, got) // peer's (x̄·V̄)ᵀ − S̄
	var share *hetensor.BigMatrix
	if p.ANCheck {
		var bad int
		share, bad = hetensor.IntMatMulTAN(x, u)
		p.Stream.ANChecks += int64(share.Rows * share.Cols)
		p.Stream.ANMismatches += int64(bad)
		if bad > 0 {
			p.Fail("serve share: %w: %d AN-coded residue mismatches (corrupt plaintext arithmetic)", transport.ErrCorrupt, bad)
		}
	} else {
		share = hetensor.IntMatMulT(x, u)
	}
	share.AddInPlace(eps)
	share.AddInPlace(other)
	return share
}

// ServeForward runs Party A's half of a batched serve forward for the
// request features x and ships A's integer share to B. As in training, A
// learns nothing: the share it sends is blinded by B's masks.
func (l *MatMulA) ServeForward(x *tensor.Dense) {
	l.peer.Send(serveHalf(l.peer, x, l.UA, l.encVA))
}

// ServeShare runs Party B's half and returns the reconstructed exact integer
// activation Zᵀ = (X_A·W_A + X_B·W_B)ᵀ at scale 2 — the multi-party
// aggregation unit (shares from k sessions sum in ℤ before one decode).
func (l *MatMulB) ServeShare(x *tensor.Dense) *hetensor.BigMatrix {
	share := serveHalf(l.peer, x, l.UB, l.encVB)
	share.AddInPlace(l.peer.RecvBig(share.Rows, share.Cols, share.Scale))
	return share
}

// ServeForward runs Party B's half of a batched serve forward and returns
// the decoded activation Z (batch×out).
func (l *MatMulB) ServeForward(x *tensor.Dense) *tensor.Dense {
	return l.ServeShare(x).DecodeTranspose()
}

// ServeStart runs the serve-session weight exchange on every session of the
// multi-party layer. Must run concurrently with ServeStart on every A(i).
// Like every serve method, it is defined for dense halves only.
func (m *MultiMatMulB) ServeStart() {
	m.g.ForEach(func(i int, _ *protocol.Peer) { m.dense(i).ServeStart() })
}

// ServeForward runs the k serve sub-forwards concurrently and reconstructs
// Z = Σᵢ X_A(i)·W_A(i) + X_B·W_B, summing the integer shares in session
// order before the single decode (exact, so the order only matters for
// determinism of the float result, which the integer domain gives for free).
func (m *MultiMatMulB) ServeForward(x *tensor.Dense) *tensor.Dense {
	return m.ServeShareSum(x).DecodeTranspose()
}

// ServeShareSum runs the serve sub-forwards and returns the session-order
// share sum *without* decoding — the shard worker's eval partial. Shares are
// exact scaled integers, so the root may add shard partials in shard order
// and decode once, bit-identical to the all-sessions sum (unlike the float
// training partials, which must ship per session).
func (m *MultiMatMulB) ServeShareSum(x *tensor.Dense) *hetensor.BigMatrix {
	shares := make([]*hetensor.BigMatrix, len(m.subs))
	m.g.ForEach(func(i int, _ *protocol.Peer) { shares[i] = m.dense(i).ServeShare(x) })
	var z *hetensor.BigMatrix
	for _, s := range shares {
		if s == nil {
			continue // session lost mid-run (ContinueOnLoss)
		}
		if z == nil {
			z = s
		} else {
			z.AddInPlace(s)
		}
	}
	return z
}
