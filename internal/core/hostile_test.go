package core

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// againstHostile runs the victim's half on v while the test plays the other
// party on h, and returns the victim's error. Nothing a peer sends may panic
// the victim: every malformed message must end in a typed failure.
func againstHostile(v, h *protocol.Peer, victim func(), hostile func(h *protocol.Peer)) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = h.Run(func() { hostile(h) }) // the hostile side fails once the victim hangs up
	}()
	err := v.Run(victim)
	v.Conn.Close()
	h.Conn.Close()
	<-done
	return err
}

func requireCorrupt(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, transport.ErrCorrupt) {
		t.Fatalf("err = %v, want transport.ErrCorrupt", err)
	}
}

// TestSparseHostilePeer: the sparse layer indexes its pieces by the row
// lists a peer sends and caches the rows it returns. An index outside the
// piece, a list out of order, or a row matrix of the wrong shape or lanes
// must fail the step with ErrCorrupt before any kernel or parallel worker
// touches it.
func TestSparseHostilePeer(t *testing.T) {
	const inA, inB, out = 12, 10, 2
	cfg := Config{Out: out, LR: 0.1}
	rng := rand.New(rand.NewSource(31))
	xA, xB := tensor.RandCSR(rng, 4, inA, 3), tensor.RandCSR(rng, 4, inB, 3)
	cipher := func(h *protocol.Peer, rows, cols int, scale uint, l hetensor.Layout) *hetensor.Matrix {
		return hetensor.EncryptAs(&h.SK.PublicKey, tensor.NewDense(rows, cols), scale, l)
	}
	// B's half of A's forward: take A's request, make one, answer A's with
	// the rows rows() returns.
	forward := func(request []int, rows func(h *protocol.Peer, n int) *hetensor.Matrix) func(*protocol.Peer) {
		return func(h *protocol.Peer) {
			missing := h.RecvInts()
			h.Send(request)
			h.RecvMatrix()
			h.SendMatrix(rows(h, len(missing)))
		}
	}
	honest := func(h *protocol.Peer, n int) *hetensor.Matrix { return cipher(h, n, out, 1, hetensor.Layout{}) }
	forwardCases := map[string]func(*protocol.Peer){
		"request past the piece":     forward([]int{0, inB}, honest),
		"negative request":           forward([]int{-1}, honest),
		"repeated request":           forward([]int{1, 1}, honest),
		"request out of order":       forward([]int{3, 1}, honest),
		"rows short of the request":  forward([]int{0}, func(h *protocol.Peer, n int) *hetensor.Matrix { return cipher(h, n-1, out, 1, hetensor.Layout{}) }),
		"more rows than the request": forward([]int{0}, func(h *protocol.Peer, n int) *hetensor.Matrix { return cipher(h, n+1, out, 1, hetensor.Layout{}) }),
		"rows wider than the layer":  forward([]int{0}, func(h *protocol.Peer, n int) *hetensor.Matrix { return cipher(h, n, out+1, 1, hetensor.Layout{}) }),
		"rows at another scale":      forward([]int{0}, func(h *protocol.Peer, n int) *hetensor.Matrix { return cipher(h, n, out, 2, hetensor.Layout{}) }),
		"rows packed across a row": forward([]int{0}, func(h *protocol.Peer, n int) *hetensor.Matrix {
			return cipher(h, n, out, 1, hetensor.Layout{Packed: true})
		}),
	}
	for name, hostile := range forwardCases {
		t.Run("forward/"+name, func(t *testing.T) {
			pa, pb := pipe(t, 41)
			la := NewSparseMatMulA(pa, cfg, inA, inB)
			requireCorrupt(t, againstHostile(pa, pb, func() { la.Forward(xA) }, hostile))
		})
	}

	// A's half of B's backward: take ⟦∇Z⟧, name the touched rows of V_A,
	// and convert a gradient of that many rows.
	backward := func(touched []int) func(*protocol.Peer) {
		return func(h *protocol.Peer) {
			h.RecvMatrix()
			h.Send(touched)
			h.HE2SSSend(hetensor.PackFlat(hetensor.Encrypt(h.PeerPK, tensor.NewDense(len(touched), out), 1)))
		}
	}
	backwardCases := map[string][]int{
		"touched row past the piece": {2, inA},
		"negative touched row":       {-1, 2},
		"repeated touched row":       {2, 2},
	}
	for name, touched := range backwardCases {
		t.Run("backward/"+name, func(t *testing.T) {
			pa, pb := pipe(t, 42)
			lb := NewSparseMatMulB(pb, cfg, inA, inB)
			lb.x = xB
			gradZ := tensor.RandDense(rng, xB.Rows, out, 1)
			requireCorrupt(t, againstHostile(pb, pa, func() { lb.Backward(gradZ) }, backward(touched)))
		})
	}
}

// TestServeHostilePeer: the label party adds the feature party's masked
// product and integer share into its own. A product of the wrong shape,
// scale or lanes, or a share of the wrong shape or with entries missing,
// must fail the request with ErrCorrupt instead of panicking in the
// addition.
func TestServeHostilePeer(t *testing.T) {
	const inA, inB, out, batch = 5, 4, 3, 6
	cfg := Config{Out: out, LR: 0.05}
	xB := tensor.RandDense(rand.New(rand.NewSource(43)), batch, inB, 1)
	product := func(rows, cols int, scale uint, l hetensor.Layout) func(*protocol.Peer) *hetensor.Matrix {
		return func(h *protocol.Peer) *hetensor.Matrix {
			return hetensor.EncryptAs(h.PeerPK, tensor.NewDense(rows, cols), scale, l)
		}
	}
	honestProduct := product(out, batch, 2, hetensor.Layout{Packed: true})
	share := func(rows, cols int, scale uint, entries bool) *hetensor.BigMatrix {
		m := &hetensor.BigMatrix{Rows: rows, Cols: cols, Scale: scale, V: make([]*big.Int, rows*cols)}
		for i := range m.V {
			if entries {
				m.V[i] = new(big.Int)
			}
		}
		return m
	}
	honestShare := share(out, batch, 2, true)
	cases := map[string]struct {
		product func(*protocol.Peer) *hetensor.Matrix
		share   *hetensor.BigMatrix
	}{
		"product short a row":          {product(out-1, batch, 2, hetensor.Layout{Packed: true}), honestShare},
		"product wider than the batch": {product(out, batch+1, 2, hetensor.Layout{Packed: true}), honestShare},
		"product at another scale":     {product(out, batch, 1, hetensor.Layout{Packed: true}), honestShare},
		"product in whole lanes":       {product(out, batch, 2, hetensor.Layout{}), honestShare},
		"share short a row":            {honestProduct, share(out-1, batch, 2, true)},
		"share wider than the batch":   {honestProduct, share(out, batch+1, 2, true)},
		"share at another scale":       {honestProduct, share(out, batch, 1, true)},
		"share with entries missing":   {honestProduct, share(out, batch, 2, false)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			pa, pb := pipe(t, 44)
			la, lb := newMatMulPair(t, pa, pb, cfg, inA, inB)
			if err := protocol.RunParties(pa, pb, la.ServeStart, lb.ServeStart); err != nil {
				t.Fatal(err)
			}
			requireCorrupt(t, againstHostile(pb, pa, func() { lb.ServeShare(xB) }, func(h *protocol.Peer) {
				h.RecvMatrix()
				h.SendMatrix(c.product(h))
				h.Send(c.share)
			}))
		})
	}
}
