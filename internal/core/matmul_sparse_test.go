package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

func newSparsePair(t testing.TB, pa, pb *protocol.Peer, cfg Config, inA, inB int) (*SparseMatMulA, *SparseMatMulB) {
	t.Helper()
	la := NewSparseMatMulA(pa, cfg, inA, inB)
	lb := NewSparseMatMulB(pb, cfg, inA, inB)
	return la, lb
}

// settleSparse settles both halves of a sparse layer, so its pieces sum to
// the weights.
func settleSparse(t testing.TB, pa, pb *protocol.Peer, la *SparseMatMulA, lb *SparseMatMulB) {
	t.Helper()
	if err := protocol.RunParties(pa, pb, la.Settle, lb.Settle); err != nil {
		t.Fatal(err)
	}
}

// sparseW reconstructs W_A and W_B of a settled layer.
func sparseW(t testing.TB, la *SparseMatMulA, lb *SparseMatMulB) (wA, wB *tensor.Dense) {
	t.Helper()
	wA, errA := DebugSparseWeightsA(la, lb)
	wB, errB := DebugSparseWeightsB(la, lb)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	return wA, wB
}

// TestSparseUnsettledReadsFail: between a step and its Settle a sparse
// layer owes A's masked gradient, so its pieces are off by a mask. Saving
// either half or reconstructing the weights then fails with the typed
// ErrUnsettled; after Settle both succeed, and the saved halves load back.
func TestSparseUnsettledReadsFail(t *testing.T) {
	pa, pb := pipe(t, 309)
	cfg := Config{Out: 2, LR: 0.1, Momentum: 0.9}
	la, lb := newSparsePair(t, pa, pb, cfg, 20, 10)
	rng := rand.New(rand.NewSource(9))
	xA, xB := tensor.RandCSR(rng, 4, 20, 3), tensor.RandCSR(rng, 4, 10, 3)
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(SparseFeatures{xA}); la.Backward() },
		func() { lb.Forward(SparseFeatures{xB}); lb.Backward(tensor.RandDense(rng, 4, 2, 1)) },
	); err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	for name, err := range map[string]error{"Save A": la.Save(&bufA), "Save B": lb.Save(&bufB)} {
		if !errors.Is(err, ErrUnsettled) {
			t.Errorf("%s on an unsettled layer: err = %v, want ErrUnsettled", name, err)
		}
	}
	if _, err := DebugSparseWeightsA(la, lb); !errors.Is(err, ErrUnsettled) {
		t.Errorf("DebugSparseWeightsA on an unsettled layer: err = %v, want ErrUnsettled", err)
	}
	settleSparse(t, pa, pb, la, lb)
	if err := la.Save(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := lb.Save(&bufB); err != nil {
		t.Fatal(err)
	}
	na, errA := LoadMatMulA(&bufA, pa, true, 20, 10, 2)
	nb, errB := LoadMatMulB(&bufB, pb, true, 20, 10, 2)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	wA, _ := sparseW(t, la, lb)
	if got, _ := sparseW(t, na.(*SparseMatMulA), nb.(*SparseMatMulB)); !got.Equal(wA, 0) {
		t.Fatal("a saved and loaded sparse layer reconstructs different weights")
	}
}

func TestSparseMatMulForwardMatchesPlaintext(t *testing.T) {
	pa, pb := pipe(t, 300)
	cfg := Config{Out: 2, LR: 0.1}
	la, lb := newSparsePair(t, pa, pb, cfg, 40, 30)

	rng := rand.New(rand.NewSource(1))
	xA := tensor.RandCSR(rng, 6, 40, 4)
	xB := tensor.RandCSR(rng, 6, 30, 3)

	wA, wB := sparseW(t, la, lb)
	want := xA.ToDense().MatMul(wA).Add(xB.ToDense().MatMul(wB))

	var z *tensor.Dense
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(SparseFeatures{xA}) },
		func() { z = lb.Forward(SparseFeatures{xB}) },
	); err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want, 1e-5) {
		t.Fatalf("sparse federated Z diverges (maxdiff %g)", z.Sub(want).MaxAbs())
	}
}

func TestSparseMatMulBackwardMatchesSGD(t *testing.T) {
	pa, pb := pipe(t, 301)
	cfg := Config{Out: 2, LR: 0.05}
	la, lb := newSparsePair(t, pa, pb, cfg, 25, 20)

	rng := rand.New(rand.NewSource(2))
	xA := tensor.RandCSR(rng, 5, 25, 3)
	xB := tensor.RandCSR(rng, 5, 20, 3)
	gradZ := tensor.RandDense(rng, 5, 2, 1)

	wA, wB := sparseW(t, la, lb)
	wantWA := wA.Sub(xA.ToDense().Transpose().MatMul(gradZ).Scale(cfg.LR))
	wantWB := wB.Sub(xB.ToDense().Transpose().MatMul(gradZ).Scale(cfg.LR))

	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(SparseFeatures{xA}); la.Backward() },
		func() { lb.Forward(SparseFeatures{xB}); lb.Backward(gradZ) },
	); err != nil {
		t.Fatal(err)
	}
	settleSparse(t, pa, pb, la, lb)
	gotA, gotB := sparseW(t, la, lb)
	if got := gotA; !got.Equal(wantWA, 1e-4) {
		t.Fatalf("sparse W_A update wrong (maxdiff %g)", got.Sub(wantWA).MaxAbs())
	}
	if got := gotB; !got.Equal(wantWB, 1e-4) {
		t.Fatalf("sparse W_B update wrong (maxdiff %g)", got.Sub(wantWB).MaxAbs())
	}
}

// holdConn is an endpoint whose sends, once armed, wait until it is
// released.
type holdConn struct {
	transport.Conn
	armed   atomic.Bool
	release chan struct{}
	once    sync.Once
}

func (c *holdConn) Send(v any) error {
	if c.armed.Load() {
		<-c.release
	}
	return c.Conn.Send(v)
}

func (c *holdConn) open() { c.once.Do(func() { close(c.release) }) }

// TestSparseStepEndsOnGradientSend pins the schedule of a sparse step: B's
// Backward ends on its ⟦∇Z⟧ send and does not wait for A's masked gradient,
// which B's next forward takes before it serves a row of ⟦V_A⟧. With A's
// link held from the moment A has ⟦∇Z⟧ in hand, so that nothing A sends can
// leave, B's Backward must still return. Released, the next forward must
// multiply by B's updated rows, and after Settle the pieces must be those of
// a run that never held its link and settled straight after the backward,
// bit for bit, and sum to one SGD step.
func TestSparseStepEndsOnGradientSend(t *testing.T) {
	const inA, inB, batch = 25, 20, 5
	cfg := Config{Out: 2, LR: 0.05, Momentum: 0.9}
	rng := rand.New(rand.NewSource(6))
	xA, xB := tensor.RandCSR(rng, batch, inA, 3), tensor.RandCSR(rng, batch, inB, 3)
	gradZ := tensor.RandDense(rng, batch, cfg.Out, 1)
	nextA, nextB := tensor.RandCSR(rng, batch, inA, 3), tensor.RandCSR(rng, batch, inB, 3)

	run := func(t *testing.T, hold bool) []*tensor.Dense {
		skA, skB := protocol.TestKeys()
		ca, cb := transport.Pair(4096)
		gate := &holdConn{Conn: ca, release: make(chan struct{})}
		defer gate.open()
		pa, pb, err := protocol.PipeOn(gate, cb, skA, skB, 305)
		if err != nil {
			t.Fatal(err)
		}
		la, lb := newSparsePair(t, pa, pb, cfg, inA, inB)
		wA, wB := sparseW(t, la, lb)
		wantWA := wA.Sub(xA.ToDense().Transpose().MatMul(gradZ).Scale(cfg.LR))
		wantWB := wB.Sub(xB.ToDense().Transpose().MatMul(gradZ).Scale(cfg.LR))
		if err := protocol.RunParties(pa, pb, func() { la.Forward(SparseFeatures{xA}) }, func() { lb.Forward(SparseFeatures{xB}) }); err != nil {
			t.Fatal(err)
		}
		if hold {
			gate.armed.Store(true) // A's first send of the backward is its ack of ⟦∇Z⟧
			doneA, doneB := make(chan error, 1), make(chan error, 1)
			go func() { doneA <- pa.Run(la.Backward) }()
			go func() { doneB <- pb.Run(func() { lb.Backward(gradZ) }) }()
			select {
			case err := <-doneB:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("B's Backward waits for the gradient A cannot send")
			}
			select {
			case <-doneA:
				t.Fatal("A's Backward returned through a held link")
			default:
			}
			gate.open()
			if err := <-doneA; err != nil {
				t.Fatal(err)
			}
		} else {
			if err := protocol.RunParties(pa, pb,
				func() { la.Backward(); la.Settle() },
				func() { lb.Backward(gradZ); lb.Settle() },
			); err != nil {
				t.Fatal(err)
			}
		}
		if err := protocol.RunParties(pa, pb, func() { la.Forward(SparseFeatures{nextA}) }, func() { lb.Forward(SparseFeatures{nextB}) }); err != nil {
			t.Fatal(err)
		}
		touched := touchedCols(nextA)
		if used, cur := hetensor.Decrypt(pb.SK, la.cacheVA.gather(touched)), lb.VA.GatherRows(touched); !used.Equal(cur, 1e-9) {
			t.Fatalf("the next forward multiplied by a stale row of ⟦V_A⟧ (maxdiff %g)", used.Sub(cur).MaxAbs())
		}
		settleSparse(t, pa, pb, la, lb)
		gotA, gotB := sparseW(t, la, lb)
		if got := gotA; !got.Equal(wantWA, 1e-4) {
			t.Fatalf("W_A is not one SGD step (maxdiff %g)", got.Sub(wantWA).MaxAbs())
		}
		if got := gotB; !got.Equal(wantWB, 1e-4) {
			t.Fatalf("W_B is not one SGD step (maxdiff %g)", got.Sub(wantWB).MaxAbs())
		}
		return []*tensor.Dense{la.UA, la.VB, lb.UB, lb.VA}
	}

	held, settled := run(t, true), run(t, false)
	for i, name := range []string{"U_A", "V_B", "U_B", "V_A"} {
		if !held[i].Equal(settled[i], 0) {
			t.Errorf("%s after a held link differs from the settled run by %g", name, held[i].Sub(settled[i]).MaxAbs())
		}
	}
}

// TestSparseMatMulCacheNeverStale interleaves training steps with
// forward-only passes on random batches over a feature space small enough
// that rows recur constantly — the schedule under which invalidate-on-update
// could serve a stale row: a forward-only pass caches rows, a training step
// updates some of them at B, a later pass touches them again. Every row A
// multiplies by must decrypt (the test holds B's key) to B's current V_A row,
// and every activation must match the plaintext one. A training round leaves
// its masked gradient owed, so each round settles before it reads the
// pieces.
func TestSparseMatMulCacheNeverStale(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		pa, pb := pipe(t, 302)
		cfg := Config{Out: 2, LR: 0.1, Momentum: 0.9}
		la, lb := newSparsePair(t, pa, pb, cfg, 12, 12)
		rng := rand.New(rand.NewSource(seed))
		trained, reused := 0, 0
		for round := 0; round < 24; round++ {
			train := rng.Intn(2) == 0
			xA := tensor.RandCSR(rng, 3, 12, 2)
			xB := tensor.RandCSR(rng, 3, 12, 2)
			gradZ := tensor.RandDense(rng, 3, 2, 1)
			touched := touchedCols(xA)
			reused += len(touched) - len(la.cacheVA.missing(touched))
			settleSparse(t, pa, pb, la, lb)
			wA, wB := sparseW(t, la, lb)
			want := xA.ToDense().MatMul(wA).Add(xB.ToDense().MatMul(wB))
			var z *tensor.Dense
			if err := protocol.RunParties(pa, pb, func() { la.Forward(SparseFeatures{xA}) }, func() { z = lb.Forward(SparseFeatures{xB}) }); err != nil {
				t.Fatal(err)
			}
			if !z.Equal(want, 1e-4) {
				t.Fatalf("seed %d round %d: sparse forward inconsistent (maxdiff %g)", seed, round, z.Sub(want).MaxAbs())
			}
			used := hetensor.Decrypt(pb.SK, la.cacheVA.gather(touched))
			if cur := lb.VA.GatherRows(touched); !used.Equal(cur, 1e-9) {
				t.Fatalf("seed %d round %d: A multiplied by a stale row of ⟦V_A⟧ (maxdiff %g)", seed, round, used.Sub(cur).MaxAbs())
			}
			if !train {
				continue
			}
			trained++
			if err := protocol.RunParties(pa, pb, func() { la.Backward() }, func() { lb.Backward(gradZ) }); err != nil {
				t.Fatal(err)
			}
			if n := len(touched) - len(la.cacheVA.missing(touched)); n != 0 {
				t.Fatalf("seed %d round %d: %d rows B just updated are still cached", seed, round, n)
			}
		}
		if trained == 0 || trained == 24 || reused == 0 {
			t.Fatalf("seed %d: %d of 24 rounds trained and %d cached rows were reused: the schedule does not interleave", seed, trained, reused)
		}
	}
}

// TestSparseMatMulCacheGrowsOnlyWithTouchedRows: a forward-only pass caches
// the batch's touched rows and nothing else; a training step leaves none of
// its rows of ⟦V_A⟧ behind — B has changed them — while B's cache of ⟦V_B⟧,
// which never changes, keeps its rows.
func TestSparseMatMulCacheGrowsOnlyWithTouchedRows(t *testing.T) {
	pa, pb := pipe(t, 303)
	cfg := Config{Out: 1, LR: 0.1}
	la, lb := newSparsePair(t, pa, pb, cfg, 1000, 1000)

	rng := rand.New(rand.NewSource(4))
	xA := tensor.RandCSR(rng, 4, 1000, 2) // at most 8 touched of 1000
	xB := tensor.RandCSR(rng, 4, 1000, 2)
	if err := protocol.RunParties(pa, pb, func() { la.Forward(SparseFeatures{xA}) }, func() { lb.Forward(SparseFeatures{xB}) }); err != nil {
		t.Fatal(err)
	}
	if n, want := len(la.cacheVA.cache), len(touchedCols(xA)); n != want {
		t.Fatalf("after a forward-only pass the cache holds %d rows; expected the %d touched", n, want)
	}
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(SparseFeatures{xA}); la.Backward() },
		func() { lb.Forward(SparseFeatures{xB}); lb.Backward(tensor.NewDense(4, 1)) },
	); err != nil {
		t.Fatal(err)
	}
	if n := len(la.cacheVA.cache); n != 0 {
		t.Fatalf("after a training step the cache still holds %d of the step's rows", n)
	}
	if n, want := len(lb.cacheVB.cache), len(touchedCols(xB)); n != want {
		t.Fatalf("peer cache holds %d rows; expected the %d touched", n, want)
	}
}

func TestSparseMatMulMomentumMatchesLazySGD(t *testing.T) {
	pa, pb := pipe(t, 304)
	cfg := Config{Out: 1, LR: 0.1, Momentum: 0.9}
	la, lb := newSparsePair(t, pa, pb, cfg, 10, 10)

	rng := rand.New(rand.NewSource(5))
	// Reference: lazy momentum on the reconstructed weights.
	wA, _ := sparseW(t, la, lb)
	buf := tensor.NewDense(10, 1)

	for step := 0; step < 3; step++ {
		xA := tensor.RandCSR(rng, 3, 10, 2)
		xB := tensor.RandCSR(rng, 3, 10, 2)
		gradZ := tensor.RandDense(rng, 3, 1, 1)

		gA := xA.TransposeMatMul(gradZ)
		for _, k := range touchedCols(xA) {
			buf.Set(k, 0, 0.9*buf.At(k, 0)+gA.At(k, 0))
			wA.Set(k, 0, wA.At(k, 0)-cfg.LR*buf.At(k, 0))
		}

		if err := protocol.RunParties(pa, pb,
			func() { la.Forward(SparseFeatures{xA}); la.Backward() },
			func() { lb.Forward(SparseFeatures{xB}); lb.Backward(gradZ) },
		); err != nil {
			t.Fatal(err)
		}
	}
	settleSparse(t, pa, pb, la, lb)
	if got, _ := sparseW(t, la, lb); !got.Equal(wA, 1e-3) {
		t.Fatalf("lazy momentum diverged (maxdiff %g)", got.Sub(wA).MaxAbs())
	}
}
