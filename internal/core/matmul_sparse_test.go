package core

import (
	"math/rand"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

func newSparsePair(t testing.TB, pa, pb *protocol.Peer, cfg Config, inA, inB int) (*SparseMatMulA, *SparseMatMulB) {
	t.Helper()
	la := NewSparseMatMulA(pa, cfg, inA, inB)
	lb := NewSparseMatMulB(pb, cfg, inA, inB)
	return la, lb
}

func TestSparseMatMulForwardMatchesPlaintext(t *testing.T) {
	pa, pb := pipe(t, 300)
	cfg := Config{Out: 2, LR: 0.1}
	la, lb := newSparsePair(t, pa, pb, cfg, 40, 30)

	rng := rand.New(rand.NewSource(1))
	xA := tensor.RandCSR(rng, 6, 40, 4)
	xB := tensor.RandCSR(rng, 6, 30, 3)

	want := xA.ToDense().MatMul(DebugSparseWeightsA(la, lb)).
		Add(xB.ToDense().MatMul(DebugSparseWeightsB(la, lb)))

	var z *tensor.Dense
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(xA) },
		func() { z = lb.Forward(xB) },
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

	wantWA := DebugSparseWeightsA(la, lb).Sub(xA.ToDense().Transpose().MatMul(gradZ).Scale(cfg.LR))
	wantWB := DebugSparseWeightsB(la, lb).Sub(xB.ToDense().Transpose().MatMul(gradZ).Scale(cfg.LR))

	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(xA); la.Backward() },
		func() { lb.Forward(xB); lb.Backward(gradZ) },
	); err != nil {
		t.Fatal(err)
	}
	if got := DebugSparseWeightsA(la, lb); !got.Equal(wantWA, 1e-4) {
		t.Fatalf("sparse W_A update wrong (maxdiff %g)", got.Sub(wantWA).MaxAbs())
	}
	if got := DebugSparseWeightsB(la, lb); !got.Equal(wantWB, 1e-4) {
		t.Fatalf("sparse W_B update wrong (maxdiff %g)", got.Sub(wantWB).MaxAbs())
	}
}

// TestSparseMatMulCacheNeverStale interleaves training steps with
// forward-only passes on random batches over a feature space small enough
// that rows recur constantly — the schedule under which invalidate-on-update
// could serve a stale row: a forward-only pass caches rows, a training step
// updates some of them at B, a later pass touches them again. Every row A
// multiplies by must decrypt (the test holds B's key) to B's current V_A row,
// and every activation must match the plaintext one.
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
			want := xA.ToDense().MatMul(DebugSparseWeightsA(la, lb)).
				Add(xB.ToDense().MatMul(DebugSparseWeightsB(la, lb)))
			var z *tensor.Dense
			if err := protocol.RunParties(pa, pb, func() { la.Forward(xA) }, func() { z = lb.Forward(xB) }); err != nil {
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
	if err := protocol.RunParties(pa, pb, func() { la.Forward(xA) }, func() { lb.Forward(xB) }); err != nil {
		t.Fatal(err)
	}
	if n, want := len(la.cacheVA.cache), len(touchedCols(xA)); n != want {
		t.Fatalf("after a forward-only pass the cache holds %d rows; expected the %d touched", n, want)
	}
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(xA); la.Backward() },
		func() { lb.Forward(xB); lb.Backward(tensor.NewDense(4, 1)) },
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
	wA := DebugSparseWeightsA(la, lb)
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
			func() { la.Forward(xA); la.Backward() },
			func() { lb.Forward(xB); lb.Backward(gradZ) },
		); err != nil {
			t.Fatal(err)
		}
	}
	if got := DebugSparseWeightsA(la, lb); !got.Equal(wA, 1e-3) {
		t.Fatalf("lazy momentum diverged (maxdiff %g)", got.Sub(wA).MaxAbs())
	}
}
