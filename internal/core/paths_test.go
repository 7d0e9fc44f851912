package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"blindfl/internal/engine"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Every engine configuration of a source layer is the same model: packing
// and the send span change how ciphertexts are laid out and framed, never
// what is computed. These tests drive each layer over every path — packed or
// not × span (whole, 1, 2, 3, taller than the batch) × by pointer
// (transport.Pair) or through gob (NewGobConn over net.Pipe) — from identical
// seeds, and hold every path to the plaintext reference and, exactly, to the
// whole-span unpacked run: framing moves no value, and a lane holds the very
// integer its ciphertext would have held alone, so every decoded float is
// the same float.

type path struct {
	packed bool
	span   int // engine.Options.ChunkRows; 0 = Stream off
	gob    bool
}

func (p path) String() string {
	return fmt.Sprintf("packed=%v/span=%d/gob=%v", p.packed, p.span, p.gob)
}

func (p path) options() engine.Options {
	return engine.Options{Packed: p.packed, Stream: p.span > 0, ChunkRows: p.span}
}

// paths lists the whole-span unpacked Pair run first: the reference.
func paths() []path {
	var ps []path
	for _, packed := range []bool{false, true} {
		for _, span := range []int{0, 1, 2, 3, 99} {
			for _, gob := range []bool{false, true} {
				ps = append(ps, path{packed, span, gob})
			}
		}
	}
	return ps
}

// pathPeers opens a session over the path's transport.
func pathPeers(t *testing.T, p path, seed int64) (*protocol.Peer, *protocol.Peer) {
	t.Helper()
	if !p.gob {
		return pipe(t, seed)
	}
	na, nb := net.Pipe()
	t.Cleanup(func() { na.Close(); nb.Close() })
	skA, skB := protocol.TestKeys()
	pa, pb, err := protocol.PipeOn(transport.NewGobConn(na), transport.NewGobConn(nb), skA, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

// onEveryPath runs the trajectory on every path and compares what it returns
// — named matrices — across paths as the header comment says.
func onEveryPath(t *testing.T, run func(t *testing.T, p path) map[string]*tensor.Dense) {
	var whole map[string]*tensor.Dense
	for _, p := range paths() {
		t.Run(p.String(), func(t *testing.T) {
			got := run(t, p)
			if whole == nil {
				whole = got
			}
			for name, m := range got {
				if ref := whole[name]; !m.Equal(ref, 0) {
					t.Errorf("%s diverges from the whole-span unpacked run by %g", name, m.Sub(ref).MaxAbs())
				}
			}
		})
	}
}

func TestMatMulOnEveryPath(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		t.Run(fmt.Sprintf("sparse=%v", sparse), func(t *testing.T) {
			onEveryPath(t, func(t *testing.T, p path) map[string]*tensor.Dense {
				pa, pb := pathPeers(t, p, 803)
				cfg := Config{Out: 2, LR: 0.05, Options: p.options()}
				la, lb := newMatMulPair(t, pa, pb, cfg, 12, 3)
				rng := rand.New(rand.NewSource(5))
				wA, wB := DebugWeightsA(la, lb), DebugWeightsB(la, lb)
				var z *tensor.Dense
				for step := 0; step < 3; step++ {
					xA := tensor.RandCSR(rng, 5, 12, 3)
					xB := tensor.RandDense(rng, 5, 3, 1)
					gradZ := tensor.RandDense(rng, 5, 2, 1)
					var fA Numeric = DenseFeatures{xA.ToDense()}
					if sparse {
						fA = SparseFeatures{xA}
					}
					wantZ := xA.ToDense().MatMul(wA).Add(xB.MatMul(wB))
					if err := protocol.RunParties(pa, pb,
						func() { la.Forward(fA); la.Backward() },
						func() { z = lb.Forward(DenseFeatures{xB}); lb.Backward(gradZ) },
					); err != nil {
						t.Fatal(err)
					}
					if !z.Equal(wantZ, 1e-4) {
						t.Fatalf("step %d: federated Z diverges from plaintext by %g", step, z.Sub(wantZ).MaxAbs())
					}
					wA = wA.Sub(xA.ToDense().TransposeMatMul(gradZ).Scale(cfg.LR))
					wB = wB.Sub(xB.TransposeMatMul(gradZ).Scale(cfg.LR))
				}
				got := map[string]*tensor.Dense{"W_A": DebugWeightsA(la, lb), "W_B": DebugWeightsB(la, lb), "Z": z}
				if !got["W_A"].Equal(wA, 1e-3) || !got["W_B"].Equal(wB, 1e-3) {
					t.Fatal("weights diverge from plaintext SGD")
				}
				// The span is honoured: A ships the initial ⟦V_B⟧ (3 rows) and,
				// per step, a 5-row forward and a 12-row gradient conversion.
				if want := int64(chunksOf(3, p.span) + 3*(chunksOf(5, p.span)+chunksOf(12, p.span))); pa.Stream.ChunksSent != want {
					t.Fatalf("party A sent %d chunks, want %d", pa.Stream.ChunksSent, want)
				}
				return got
			})
		})
	}
}

// chunksOf is how many chunks a rows-tall transfer takes at a span.
func chunksOf(rows, span int) int {
	if span <= 0 || span >= rows {
		return 1
	}
	return (rows + span - 1) / span
}

// TestMatMulPartiesMayPackAndChunkDifferently: both knobs are the sender's
// own; a party that packs and streams trains with one that does neither.
func TestMatMulPartiesMayPackAndChunkDifferently(t *testing.T) {
	run := func(a, b engine.Options) *tensor.Dense {
		pa, pb := pipe(t, 811)
		var la *MatMulA
		var lb *MatMulB
		if err := protocol.RunParties(pa, pb,
			func() { la = NewMatMulA(pa, Config{Out: 2, LR: 0.05, Options: a}, 4, 3) },
			func() { lb = NewMatMulB(pb, Config{Out: 2, LR: 0.05, Options: b}, 4, 3) },
		); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		xA, xB, gradZ := tensor.RandDense(rng, 5, 4, 1), tensor.RandDense(rng, 5, 3, 1), tensor.RandDense(rng, 5, 2, 1)
		if err := protocol.RunParties(pa, pb,
			func() { la.Forward(DenseFeatures{xA}); la.Backward() },
			func() { lb.Forward(DenseFeatures{xB}); lb.Backward(gradZ) },
		); err != nil {
			t.Fatal(err)
		}
		return DebugWeightsA(la, lb)
	}
	same := run(engine.Options{}, engine.Options{})
	mixed := run(engine.Options{Packed: true, Stream: true, ChunkRows: 2}, engine.Options{})
	if !mixed.Equal(same, 0) {
		t.Fatalf("mixed-option W_A diverges by %g", mixed.Sub(same).MaxAbs())
	}
}

// TestEmbedPartiesMayPackDifferently: in the Embed-MatMul layer too a matrix
// is packed because its encryptor chose so — everything under A's key follows
// A's options, everything under B's key B's, and each party's kernels take
// what arrives, under either top model.
func TestEmbedPartiesMayPackDifferently(t *testing.T) {
	run := func(a, b engine.Options, ssTop bool) []*tensor.Dense {
		pa, pb := pipe(t, 812)
		cfgA, cfgB := embedTestCfg(), embedTestCfg()
		cfgA.Options, cfgB.Options = a, b
		var la *EmbedMatMulA
		var lb *EmbedMatMulB
		if err := protocol.RunParties(pa, pb,
			func() { la = NewEmbedMatMulA(pa, cfgA) },
			func() { lb = NewEmbedMatMulB(pb, cfgB) },
		); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		xA := randIdx(rng, 3, cfgA.FieldsA, cfgA.VocabA)
		xB := randIdx(rng, 3, cfgA.FieldsB, cfgA.VocabB)
		gradZ, eps := tensor.RandDense(rng, 3, cfgA.Out, 0.5), tensor.RandDense(rng, 3, cfgA.Out, 1000)
		fa, fb := func() { la.Forward(xA); la.Backward() }, func() { lb.Forward(xB); lb.Backward(gradZ) }
		if ssTop {
			fa, fb = func() { la.ForwardSS(xA); la.BackwardSS(eps) }, func() { lb.ForwardSS(xB); lb.BackwardSS(gradZ.Sub(eps)) }
		}
		if err := protocol.RunParties(pa, pb, fa, fb); err != nil {
			t.Fatal(err)
		}
		return []*tensor.Dense{DebugTableA(la, lb), DebugTableB(la, lb), DebugEmbedWeightsA(la, lb), DebugEmbedWeightsB(la, lb)}
	}
	packs := engine.Options{Packed: true, Stream: true, ChunkRows: 2}
	for _, ssTop := range []bool{false, true} {
		same := run(engine.Options{}, engine.Options{}, ssTop)
		for name, mixed := range map[string][]*tensor.Dense{"A packs": run(packs, engine.Options{}, ssTop), "B packs": run(engine.Options{}, packs, ssTop)} {
			for i := range same {
				if !mixed[i].Equal(same[i], 0) {
					t.Errorf("ssTop=%v, %s: matrix %d diverges by %g", ssTop, name, i, mixed[i].Sub(same[i]).MaxAbs())
				}
			}
		}
	}
}

func TestEmbedMatMulOnEveryPath(t *testing.T) {
	onEveryPath(t, func(t *testing.T, p path) map[string]*tensor.Dense {
		pa, pb := pathPeers(t, p, 804)
		cfg := embedTestCfg()
		cfg.Options = p.options()
		la, lb := newEmbedPair(t, pa, pb, cfg)
		rng := rand.New(rand.NewSource(6))
		var z *tensor.Dense
		for step := 0; step < 2; step++ {
			xA := randIdx(rng, 3, cfg.FieldsA, cfg.VocabA)
			xB := randIdx(rng, 3, cfg.FieldsB, cfg.VocabB)
			gradZ := tensor.RandDense(rng, 3, cfg.Out, 0.5)
			wantZ := plaintextZ(la, lb, xA, xB)
			if err := protocol.RunParties(pa, pb,
				func() { la.Forward(xA); la.Backward() },
				func() { z = lb.Forward(xB); lb.Backward(gradZ) },
			); err != nil {
				t.Fatal(err)
			}
			// Fresh pieces are small; after an update the shares have drifted
			// towards mask magnitude and the fixed-point error with them.
			if tol := []float64{1e-5, 1e-4}[step]; !z.Equal(wantZ, tol) {
				t.Fatalf("step %d: federated Z diverges from plaintext by %g", step, z.Sub(wantZ).MaxAbs())
			}
		}
		return map[string]*tensor.Dense{"Q_A": DebugTableA(la, lb), "Q_B": DebugTableB(la, lb),
			"W_A": DebugEmbedWeightsA(la, lb), "W_B": DebugEmbedWeightsB(la, lb), "Z": z}
	})
}

// TestEmbedFedTopOnEveryPath covers the Embed-MatMul layer under a federated
// top model (Fig. 14): SS2HE in lanes and per value, both parties' cross
// terms, and all four weight pieces updating.
func TestEmbedFedTopOnEveryPath(t *testing.T) {
	onEveryPath(t, func(t *testing.T, p path) map[string]*tensor.Dense {
		pa, pb := pathPeers(t, p, 806)
		cfg := embedTestCfg()
		cfg.Options = p.options()
		la, lb := newEmbedPair(t, pa, pb, cfg)
		rng := rand.New(rand.NewSource(8))
		var zA, zB *tensor.Dense
		for step := 0; step < 2; step++ {
			xA := randIdx(rng, 3, cfg.FieldsA, cfg.VocabA)
			xB := randIdx(rng, 3, cfg.FieldsB, cfg.VocabB)
			gradZ := tensor.RandDense(rng, 3, cfg.Out, 0.5)
			eps := tensor.RandDense(rng, 3, cfg.Out, 1000)
			wantZ := plaintextZ(la, lb, xA, xB)
			if err := protocol.RunParties(pa, pb,
				func() { zA = la.ForwardSS(xA); la.BackwardSS(eps) },
				func() { zB = lb.ForwardSS(xB); lb.BackwardSS(gradZ.Sub(eps)) },
			); err != nil {
				t.Fatal(err)
			}
			if z := zA.Add(zB); !z.Equal(wantZ, 1e-4) {
				t.Fatalf("step %d: the shares reconstruct a Z that diverges from plaintext by %g", step, z.Sub(wantZ).MaxAbs())
			}
		}
		return map[string]*tensor.Dense{"Q_A": DebugTableA(la, lb), "Q_B": DebugTableB(la, lb),
			"W_A": DebugEmbedWeightsA(la, lb), "W_B": DebugEmbedWeightsB(la, lb), "Z'_A": zA, "Z'_B": zB}
	})
}

// TestFedTopOnEveryPath covers SS2HE and the federated-top backward.
func TestFedTopOnEveryPath(t *testing.T) {
	onEveryPath(t, func(t *testing.T, p path) map[string]*tensor.Dense {
		pa, pb := pathPeers(t, p, 805)
		cfg := Config{Out: 2, LR: 0.1, Options: p.options()}
		la, lb := newMatMulPair(t, pa, pb, cfg, 3, 3)
		rng := rand.New(rand.NewSource(7))
		xA := tensor.RandDense(rng, 5, 3, 1)
		xB := tensor.RandDense(rng, 5, 3, 1)
		gradZ := tensor.RandDense(rng, 5, 2, 1)
		eps := tensor.RandDense(rng, 5, 2, 1)
		gradShareB := gradZ.Sub(eps)
		wantWA := DebugWeightsA(la, lb).Sub(xA.TransposeMatMul(gradZ).Scale(cfg.LR))
		if err := protocol.RunParties(pa, pb,
			func() { la.ForwardSS(DenseFeatures{xA}); la.BackwardSS(eps) },
			func() { lb.ForwardSS(DenseFeatures{xB}); lb.BackwardSS(gradShareB) },
		); err != nil {
			t.Fatal(err)
		}
		got := map[string]*tensor.Dense{"W_A": DebugWeightsA(la, lb), "W_B": DebugWeightsB(la, lb)}
		if !got["W_A"].Equal(wantWA, 1e-4) {
			t.Fatal("fed-top W_A diverges from plaintext SGD")
		}
		return got
	})
}

// TestMultiPartyHonoursOptions pins that the multi-party layer carries the
// engine options to every session's peer on both sides: every session
// records 2-row chunks in both directions.
func TestMultiPartyHonoursOptions(t *testing.T) {
	const k = 2
	peersA, g := groupPipe(t, k, 810)
	cfg := Config{Out: 2, LR: 0.1, Options: engine.Options{Stream: true, ChunkRows: 2}}
	inAs := []int{3, 4}
	inB := 3
	as, b := newMultiMatMul(t, peersA, g, cfg, inAs, inB)

	rng := rand.New(rand.NewSource(9))
	xAs := []*tensor.Dense{tensor.RandDense(rng, 4, 3, 1), tensor.RandDense(rng, 4, 4, 1)}
	xB := tensor.RandDense(rng, 4, 3, 1)
	gradZ := tensor.RandDense(rng, 4, 2, 1)

	want := xB.MatMul(DebugMultiWeightsB(b, vbs(as)))
	for i := range as {
		want.AddInPlace(xAs[i].MatMul(DebugMultiWeightsA(b, as[i].UA, i)))
	}

	var z *tensor.Dense
	if err := protocol.RunGroup(peersA, g,
		func(i int) { as[i].Forward(DenseFeatures{xAs[i]}); as[i].Backward() },
		func() { z = b.Forward(DenseFeatures{xB}); b.Backward(gradZ) },
	); err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want, 1e-4) {
		t.Fatalf("multiparty Z diverges (maxdiff %g)", z.Sub(want).MaxAbs())
	}
	for i, pa := range peersA {
		// A: the initial ⟦V_B⟧ (inB rows), a 4-row forward conversion, an
		// inAs[i]-row gradient conversion. B: ⟦V_A⟧ twice (initial and
		// refreshed), a 4-row forward conversion, the 4-row ⟦∇Z⟧.
		pb := g.Peers[i]
		wantA := int64(chunksOf(inB, 2) + 2 + chunksOf(inAs[i], 2))
		wantB := int64(2*chunksOf(inAs[i], 2) + 4)
		if pa.Stream.ChunksSent != wantA || pb.Stream.ChunksSent != wantB || pa.Stream.ChunksRecv != wantB || pb.Stream.ChunksRecv != wantA {
			t.Fatalf("session %d: chunks A %+v B %+v, want %d one way and %d the other", i, pa.Stream, pb.Stream, wantA, wantB)
		}
	}
}

// TestMatMulCheckpointOnEveryKind saves and restores a layer pair
// mid-training, packed or not: weights and momentum survive the gob state,
// and after the resume exchange the restored pair trains on exactly as the
// original does.
func TestMatMulCheckpointOnEveryKind(t *testing.T) {
	for _, packed := range []bool{false, true} {
		t.Run(fmt.Sprintf("packed=%v", packed), func(t *testing.T) {
			pa, pb := pipe(t, 706)
			cfg := Config{Out: 2, LR: 0.1, Momentum: 0.9, Options: engine.Options{Packed: packed}}
			la, lb := newMatMulPair(t, pa, pb, cfg, 3, 3)

			rng := rand.New(rand.NewSource(7))
			step := func(a *MatMulA, b *MatMulB) {
				xA := tensor.RandDense(rng, 4, 3, 1)
				xB := tensor.RandDense(rng, 4, 3, 1)
				g := tensor.RandDense(rng, 4, 2, 1)
				if err := protocol.RunParties(pa, pb,
					func() { a.Forward(DenseFeatures{xA}); a.Backward() },
					func() { b.Forward(DenseFeatures{xB}); b.Backward(g) },
				); err != nil {
					t.Fatal(err)
				}
			}
			step(la, lb) // momentum buffers now non-nil

			var bufA, bufB bytes.Buffer
			if err := la.Save(&bufA); err != nil {
				t.Fatal(err)
			}
			if err := lb.Save(&bufB); err != nil {
				t.Fatal(err)
			}
			la2, err := LoadMatMulA(&bufA, pa, 3, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			lb2, err := LoadMatMulB(&bufB, pb, 3, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			// A checkpoint holds no ciphertexts: the restored pair redoes the
			// weight exchange, as every production restore does.
			if err := protocol.RunParties(pa, pb, la2.ResumeExchange, lb2.ResumeExchange); err != nil {
				t.Fatal(err)
			}

			// Restored halves reconstruct the same weights...
			if !DebugWeightsA(la2, lb2).Equal(DebugWeightsA(la, lb), 0) || !DebugWeightsB(la2, lb2).Equal(DebugWeightsB(la, lb), 0) {
				t.Fatal("restored weights differ")
			}
			// ...and continue training identically: run the same batch through
			// the original and restored pairs (reset rng so the draws coincide).
			rng = rand.New(rand.NewSource(8))
			step(la, lb)
			rng = rand.New(rand.NewSource(8))
			step(la2, lb2)
			if !DebugWeightsA(la2, lb2).Equal(DebugWeightsA(la, lb), 1e-6) {
				t.Fatal("training diverged after checkpoint restore")
			}
		})
	}
}
