package core

import (
	"math/rand"
	"testing"

	"blindfl/internal/engine"
	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// The sparse MatMul layer of the benchmark's sparse_wan workload
// (benchmark/workloads.go: LR, 4 000 features split evenly, 12 non-zeros a
// row split evenly, batch 16, Out 1) under the optimizer the trainer gives it.
const (
	sparseWanIn    = 2000
	sparseWanNNZ   = 6
	sparseWanBatch = 16
)

func sparseWanCfg(o engine.Options) Config {
	return Config{Out: 1, LR: 0.05, Momentum: 0.9, Options: o}
}

// indicatorCSR is a random batch of indicator features, which is what the
// generated datasets' sparse columns are (internal/data: every stored value
// is 1). It matters to the cost: the touched-row gradient kernel raises each
// ciphertext to the feature's ring image, 41 bits for +1 and the full width
// of N for any negative value.
func indicatorCSR(rng *rand.Rand, rows, cols, nnz int) *tensor.CSR {
	x := tensor.RandCSR(rng, rows, cols, nnz)
	for i := range x.Val {
		x.Val[i] = 1
	}
	return x
}

// sparseWanStep runs one forward + backward on a fresh sparse_wan-shaped
// batch and returns Party A's batch.
func sparseWanStep(tb testing.TB, rng *rand.Rand, pa, pb *protocol.Peer, la *SparseMatMulA, lb *SparseMatMulB) *tensor.CSR {
	xA := indicatorCSR(rng, sparseWanBatch, sparseWanIn, sparseWanNNZ)
	xB := indicatorCSR(rng, sparseWanBatch, sparseWanIn, sparseWanNNZ)
	gradZ := tensor.RandDense(rng, sparseWanBatch, 1, 0.05)
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(xA); la.Backward() },
		func() { lb.Forward(xB); lb.Backward(gradZ) },
	); err != nil {
		tb.Fatal(err)
	}
	return xA
}

// BenchmarkSparseStep is one sparse MatMul forward + backward at sparse_wan's
// geometry on a Pair, under the benchmark's deployment options as
// BenchmarkEmbedStep: the layer's compute without the link that is four
// fifths of the workload's step. The -spot row adds the label party's decrypt
// spot-check, whose sampled unit on this layer is a whole packed conversion
// (docs/INTEGRITY.md holds the measured cost). `make profile-sparse` profiles
// the 1024-bit row; -short (bench-smoke) keeps only the 512-bit one.
func BenchmarkSparseStep(b *testing.B) {
	for _, row := range []struct {
		name string
		bits int
		spot bool
	}{{"512", 512, false}, {"1024", 1024, false}, {"1024-spot", 1024, true}} {
		b.Run(row.name, func(b *testing.B) {
			if row.bits > 512 && testing.Short() {
				b.Skip("1024-bit rows skipped in -short mode")
			}
			pa, pb, o := deployedPipe(b, row.bits, 820, row.spot)
			la, lb := newSparsePair(b, pa, pb, sparseWanCfg(o), sparseWanIn, sparseWanIn)
			rng := rand.New(rand.NewSource(20))
			sparseWanStep(b, rng, pa, pb, la, lb) // warm-up: pools primed
			checks := pb.Stream.SpotChecks
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparseWanStep(b, rng, pa, pb, la, lb)
			}
			if row.spot {
				b.ReportMetric(float64(pb.Stream.SpotChecks-checks)/float64(b.N), "spotchecks/op")
				if pb.Stream.SpotMismatches != 0 {
					b.Fatalf("%d spot-check mismatches on a clean run", pb.Stream.SpotMismatches)
				}
			}
		})
	}
}

// shipped is one ciphertext matrix as the spy saw it leave.
type shipped struct {
	own        bool // under the sender's own key: an encryption, not a conversion
	packed     bool
	rows, cols int
	cells      int
}

// TestSparseStepWireBudget pins what one training step at sparse_wan's
// geometry and key size (K = 8) puts on the wire, transfer by transfer, with
// t = |touched_A| and u = |touched_B|. Six streams:
//
//	forward   A: u rows of ⟦V_B⟧ (B's cache is cold only in step 1), then
//	             ⟦X_A·V_A − ε⟧ as ⌈16/K⌉ = 2 ciphertexts
//	          B: t rows of ⟦V_A⟧ — every step, because every row a step
//	             fetched it also invalidated — then its product, 2 ciphertexts
//	backward  B: ⟦∇Z⟧, 16 ciphertexts
//	          A: the touched-row gradient as ⌈t/K⌉ ciphertexts
//
// and nothing after it: B encrypts exactly t rows of V_A, all of them in the
// forward pass. Every ciphertext shipped under the receiver's key is one
// decryption: 2 + ⌈t/K⌉ at the label party, 2 at the feature party. With one
// value per ciphertext and the refresh it was seven streams, 16 + t and 16
// decryptions, and 2t encryptions of V_A rows.
func TestSparseStepWireBudget(t *testing.T) {
	skA, skB := testKeys1024(t)
	var fromA, fromB []shipped // each written by its own party's goroutine
	spy := func(log *[]shipped, own *paillier.PrivateKey) func(hetensor.Matrix) {
		return func(m hetensor.Matrix) {
			s := shipped{own: m.Key().N.Cmp(own.N) == 0}
			s.rows, s.cols = m.Dims()
			switch m := m.(type) {
			case *hetensor.CipherMatrix:
				s.cells = len(m.C)
			case *hetensor.PackedMatrix:
				s.packed, s.cells = true, len(m.C)
			}
			*log = append(*log, s)
		}
	}
	ca, cb := transport.Pair(4096)
	pa, pb, err := protocol.PipeOn(spyConn{ca, spy(&fromA, skA)}, spyConn{cb, spy(&fromB, skB)}, skA, skB, 821)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := newSparsePair(t, pa, pb, sparseWanCfg(engine.Options{}), sparseWanIn, sparseWanIn)
	k := hetensor.Lanes(pa.PeerPK)
	if k != 8 {
		t.Fatalf("a 1024-bit key has %d default lanes, want 8", k)
	}
	g := func(n int) int { return (n + k - 1) / k }
	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 3; step++ {
		fromA, fromB = nil, nil
		cachedB := len(lb.cacheVB.cache)
		streams := pa.Stream.StreamsSent + pb.Stream.StreamsSent
		xA := sparseWanStep(t, rng, pa, pb, la, lb)
		if n := pa.Stream.StreamsSent + pb.Stream.StreamsSent - streams; n != 6 {
			t.Fatalf("step %d is %d streams, want 6", step, n)
		}
		nt := len(touchedCols(xA))
		u := len(lb.cacheVB.cache) - cachedB // B's cold rows this step
		wantA := []shipped{
			{own: true, rows: u, cols: 1, cells: u},
			{packed: true, rows: 1, cols: sparseWanBatch, cells: g(sparseWanBatch)},
			{packed: true, rows: 1, cols: nt, cells: g(nt)},
		}
		wantB := []shipped{
			{own: true, rows: nt, cols: 1, cells: nt},
			{packed: true, rows: 1, cols: sparseWanBatch, cells: g(sparseWanBatch)},
			{own: true, rows: sparseWanBatch, cols: 1, cells: sparseWanBatch},
		}
		for _, side := range []struct {
			name      string
			got, want []shipped
		}{{"A", fromA, wantA}, {"B", fromB, wantB}} {
			if len(side.got) != len(side.want) {
				t.Fatalf("step %d: party %s shipped %d matrices, want %d: %+v", step, side.name, len(side.got), len(side.want), side.got)
			}
			for i := range side.want {
				if side.got[i] != side.want[i] {
					t.Fatalf("step %d: party %s transfer %d is %+v, want %+v (t = %d)", step, side.name, i, side.got[i], side.want[i], nt)
				}
			}
		}
		if decB := fromA[1].cells + fromA[2].cells; decB != 2+g(nt) {
			t.Fatalf("step %d: the label party decrypts %d ciphertexts, want 2 + ⌈%d/%d⌉", step, decB, nt, k)
		}
	}
}

// TestSparseStepLaneOccupancy is TestEmbedStepLaneOccupancy for the sparse
// layer's two packed conversions: over one epoch of sparse_wan (64 steps, the
// first and the last few decrypted by the spy) every lane of the masked
// forward products and of the masked touched-row gradient keeps at least 16
// of its W − 1 bits unused, so packing across rows cannot carry into a
// neighbouring cell: the factors are a unit-sized feature and a piece that
// has drifted by the masks folded into it, not two mask-sized values.
func TestSparseStepLaneOccupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("64 spied steps: skipped in -short")
	}
	fromA, fromB := laneBits{}, laneBits{}
	spying := false // set between steps only
	spy := func(lb laneBits) func(hetensor.Matrix) {
		return func(m hetensor.Matrix) {
			if spying {
				lb.see(m)
			}
		}
	}
	skA, skB := protocol.TestKeys()
	ca, cb := transport.Pair(4096)
	pa, pb, err := protocol.PipeOn(spyConn{ca, spy(fromA)}, spyConn{cb, spy(fromB)}, skA, skB, 822)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := newSparsePair(t, pa, pb, sparseWanCfg(engine.Options{}), sparseWanIn, sparseWanIn)
	rng := rand.New(rand.NewSource(22))
	for step := 1; step <= 64; step++ {
		spying = step == 1 || step > 60
		sparseWanStep(t, rng, pa, pb, la, lb)
	}
	w := uint(2*hetensor.Codec.F + hetensor.PackHeadroom + 1)
	for name, side := range map[string]laneBits{"A": fromA, "B": fromB} {
		t.Logf("party %s's %d-bit lanes hold at most %d bits", name, w, side[w])
		if got := side[w]; got == 0 || got > int(w)-1-16 {
			t.Errorf("party %s's lanes hold %d of %d bits: want some, with 16 bits of slack", name, got, w-1)
		}
	}
}
