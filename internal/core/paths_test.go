package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
	"blindfl/internal/transport/transporttest"
)

// A source layer is the same model whatever framing and lane format its
// ciphertexts arrive in: the engine packs what it encrypts and streams at
// DefaultChunkRows, and every receiver takes a peer's transfers as they come.
// These tests drive each layer over every path — the lanes as packed or one
// value per ciphertext × span (whole, 1, 2, 3, taller than the batch) × by
// pointer (transport.Pair) or through gob (NewGobConn over net.Pipe) — from
// identical seeds, and hold every path to the plaintext reference and,
// exactly, to the whole-span unpacked run: framing moves no value, and a lane
// holds the very integer its ciphertext would have held alone, so every
// decoded float is the same float. A transporttest.Reframe link between each
// party and the wire turns the engine's own sends into the path's framing, as
// a peer that packs or chunks otherwise would have sent them.

type path struct {
	packed bool
	span   int // rows per chunk on the wire; 0 = the whole transfer
	gob    bool
}

func (p path) String() string {
	return fmt.Sprintf("packed=%v/span=%d/gob=%v", p.packed, p.span, p.gob)
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

// pathPeers opens a session over the path's transport, each party's sends
// reframed to the path.
func pathPeers(t *testing.T, p path, seed int64) (*protocol.Peer, *protocol.Peer) {
	t.Helper()
	var ca, cb transport.Conn
	if p.gob {
		na, nb := net.Pipe()
		t.Cleanup(func() { na.Close(); nb.Close() })
		ca, cb = transport.NewGobConn(na), transport.NewGobConn(nb)
	} else {
		ca, cb = transport.Pair(4096)
	}
	f := transporttest.Framing{Packed: p.packed, Span: p.span}
	return framedPipe(t, ca, cb, f, f, seed)
}

// framedPipe opens a session on the test keys over ca and cb, A's sends
// reframed to fa and B's to fb.
func framedPipe(t *testing.T, ca, cb transport.Conn, fa, fb transporttest.Framing, seed int64) (*protocol.Peer, *protocol.Peer) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	pa, pb, err := protocol.PipeOn(transporttest.NewReframe(ca, fa, skA, skB), transporttest.NewReframe(cb, fb, skA, skB), skA, skB, seed)
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
				cfg := Config{Out: 2, LR: 0.05}
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
				// A ships the initial ⟦V_B⟧ (3 rows) and, per step, a 5-row
				// forward and a 12-row gradient conversion, each at the default
				// span; B takes them at the path's.
				chunks := func(span int) int64 { return int64(chunksOf(3, span) + 3*(chunksOf(5, span)+chunksOf(12, span))) }
				if want := chunks(protocol.DefaultChunkRows); pa.Stream.ChunksSent != want {
					t.Fatalf("party A sent %d chunks, want %d", pa.Stream.ChunksSent, want)
				}
				if want := chunks(p.span); pb.Stream.ChunksRecv != want {
					t.Fatalf("party B received %d chunks, want %d", pb.Stream.ChunksRecv, want)
				}
				return got
			})
		})
	}
}

// TestZeroConfigIsTheDeployedEngine: a Config with nothing but a width and a
// rate is the engine every deployment runs. A dense step on a batch taller
// than the span ships, on the wire, nothing but ciphertexts in K > 1 lanes,
// and its batch-high transfers arrive in several chunks.
func TestZeroConfigIsTheDeployedEngine(t *testing.T) {
	const batch = 2*protocol.DefaultChunkRows + 1
	type chunk struct{ k, rows int }
	var fromA, fromB []chunk // each written by its own party's goroutine
	spy := func(log *[]chunk) func(*hetensor.Matrix) {
		return func(m *hetensor.Matrix) { *log = append(*log, chunk{m.K, m.Rows}) }
	}
	skA, skB := protocol.TestKeys()
	ca, cb := transport.Pair(4096)
	pa, pb, err := protocol.PipeOn(spyConn{ca, spy(&fromA)}, spyConn{cb, spy(&fromB)}, skA, skB, 807)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := newMatMulPair(t, pa, pb, Config{Out: 2, LR: 0.1}, 4, 3)
	rng := rand.New(rand.NewSource(7))
	xA, xB, gradZ := tensor.RandDense(rng, batch, 4, 1), tensor.RandDense(rng, batch, 3, 1), tensor.RandDense(rng, batch, 2, 1)
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(DenseFeatures{xA}); la.Backward() },
		func() { lb.Forward(DenseFeatures{xB}); lb.Backward(gradZ) },
	); err != nil {
		t.Fatal(err)
	}
	for name, side := range map[string][]chunk{"A": fromA, "B": fromB} {
		tall := 0 // chunks of the batch-high transfers: the forward conversion, and B's ⟦∇Z⟧
		for _, c := range side {
			if c.k < 2 {
				t.Fatalf("party %s shipped a chunk in %d lane: %+v", name, c.k, side)
			}
			if c.rows > protocol.DefaultChunkRows {
				t.Fatalf("party %s shipped a %d-row chunk, over the %d-row span: %+v", name, c.rows, protocol.DefaultChunkRows, side)
			}
			if c.rows == protocol.DefaultChunkRows {
				tall++
			}
		}
		if tall < 2 {
			t.Fatalf("party %s split no batch-high transfer into chunks: %+v", name, side)
		}
	}
}

// chunksOf is how many chunks a rows-tall transfer takes at a span.
func chunksOf(rows, span int) int {
	if span <= 0 || span >= rows {
		return 1
	}
	return (rows + span - 1) / span
}

// keyPairs are the key pairs the mixed-lane tests run on: the 512-bit test
// pair (the reference), and the pairs with one party in turn on a 1024-bit
// key, whose ciphertexts hold twice the lanes of the other party's.
func keyPairs(t *testing.T) (same [2]*paillier.PrivateKey, mixed map[string][2]*paillier.PrivateKey) {
	skA, skB := protocol.TestKeys()
	wideA, wideB := testKeys1024(t)
	return [2]*paillier.PrivateKey{skA, skB}, map[string][2]*paillier.PrivateKey{"A packs wider": {wideA, skB}, "B packs wider": {skA, wideB}}
}

// stepWA builds a MatMul pair on a session, runs one 5-row step and returns
// the W_A it trained.
func stepWA(t *testing.T, pa, pb *protocol.Peer) *tensor.Dense {
	t.Helper()
	la, lb := newMatMulPair(t, pa, pb, Config{Out: 2, LR: 0.05}, 4, 3)
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

// TestMatMulPartiesMayPackAndChunkDifferently: lanes and span are each
// sender's own; a party whose transfers arrive packed in 2-row chunks trains
// with one whose arrive one value per ciphertext and whole, bit for bit as
// two of the latter do.
func TestMatMulPartiesMayPackAndChunkDifferently(t *testing.T) {
	run := func(fa, fb transporttest.Framing) *tensor.Dense {
		ca, cb := transport.Pair(4096)
		pa, pb := framedPipe(t, ca, cb, fa, fb, 811)
		return stepWA(t, pa, pb)
	}
	same := run(transporttest.Framing{}, transporttest.Framing{})
	mixed := run(transporttest.Framing{Packed: true, Span: 2}, transporttest.Framing{})
	if !mixed.Equal(same, 0) {
		t.Fatalf("mixed-framing W_A diverges by %g", mixed.Sub(same).MaxAbs())
	}
}

// TestMatMulPartiesMayPackDifferently: a party packs by its own key, so
// parties whose keys hold different lane counts train the same model bit
// for bit — everything under A's key is in A's lanes, everything under B's
// key in B's, and each party's kernels take what arrives.
func TestMatMulPartiesMayPackDifferently(t *testing.T) {
	run := func(keys [2]*paillier.PrivateKey) *tensor.Dense {
		pa, pb, err := protocol.Pipe(keys[0], keys[1], 811)
		if err != nil {
			t.Fatal(err)
		}
		return stepWA(t, pa, pb)
	}
	sameKeys, pairs := keyPairs(t)
	same := run(sameKeys)
	for name, keys := range pairs {
		if mixed := run(keys); !mixed.Equal(same, 0) {
			t.Errorf("%s: W_A diverges by %g", name, mixed.Sub(same).MaxAbs())
		}
	}
}

// TestEmbedPartiesMayPackDifferently: in the Embed-MatMul layer too a matrix
// is packed in the lanes of the key it is under, under either top model.
func TestEmbedPartiesMayPackDifferently(t *testing.T) {
	run := func(keys [2]*paillier.PrivateKey, ssTop bool) []*tensor.Dense {
		pa, pb, err := protocol.Pipe(keys[0], keys[1], 812)
		if err != nil {
			t.Fatal(err)
		}
		cfg := embedTestCfg()
		la, lb := newEmbedPair(t, pa, pb, cfg)
		rng := rand.New(rand.NewSource(9))
		xA := randIdx(rng, 3, cfg.FieldsA, cfg.VocabA)
		xB := randIdx(rng, 3, cfg.FieldsB, cfg.VocabB)
		gradZ, eps := tensor.RandDense(rng, 3, cfg.Out, 0.5), tensor.RandDense(rng, 3, cfg.Out, 1000)
		fa, fb := func() { la.Forward(xA); la.Backward() }, func() { lb.Forward(xB); lb.Backward(gradZ) }
		if ssTop {
			fa, fb = func() { la.ForwardSS(xA); la.BackwardSS(eps) }, func() { lb.ForwardSS(xB); lb.BackwardSS(gradZ.Sub(eps)) }
		}
		if err := protocol.RunParties(pa, pb, fa, fb); err != nil {
			t.Fatal(err)
		}
		return []*tensor.Dense{DebugTableA(la, lb), DebugTableB(la, lb), DebugEmbedWeightsA(la, lb), DebugEmbedWeightsB(la, lb)}
	}
	sameKeys, pairs := keyPairs(t)
	for _, ssTop := range []bool{false, true} {
		same := run(sameKeys, ssTop)
		for name, keys := range pairs {
			mixed := run(keys, ssTop)
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
		cfg := Config{Out: 2, LR: 0.1}
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

// TestMultiPartyStreamsEverySession pins that every session of the
// multi-party layer streams at the default span on both sides: each records
// its chunks in both directions.
func TestMultiPartyStreamsEverySession(t *testing.T) {
	const k, span = 2, protocol.DefaultChunkRows
	peersA, g := groupPipe(t, k, 810)
	cfg := Config{Out: 2, LR: 0.1}
	inAs := []int{span + 3, 2*span + 1}
	inB := span + 2
	as, b := newMultiMatMul(t, peersA, g, cfg, inAs, inB)

	rng := rand.New(rand.NewSource(9))
	const batch = span + 1
	xAs := []*tensor.Dense{tensor.RandDense(rng, batch, inAs[0], 1), tensor.RandDense(rng, batch, inAs[1], 1)}
	xB := tensor.RandDense(rng, batch, inB, 1)
	gradZ := tensor.RandDense(rng, batch, 2, 1)

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
		// A: the initial ⟦V_B⟧ (inB rows), a batch-high forward conversion,
		// an inAs[i]-row gradient conversion. B: ⟦V_A⟧ twice (initial and
		// refreshed), a batch-high forward conversion, the batch-high ⟦∇Z⟧.
		pb := g.Peers[i]
		wantA := int64(chunksOf(inB, span) + chunksOf(batch, span) + chunksOf(inAs[i], span))
		wantB := int64(2*chunksOf(inAs[i], span) + 2*chunksOf(batch, span))
		if pa.Stream.ChunksSent != wantA || pb.Stream.ChunksSent != wantB || pa.Stream.ChunksRecv != wantB || pb.Stream.ChunksRecv != wantA {
			t.Fatalf("session %d: chunks A %+v B %+v, want %d one way and %d the other", i, pa.Stream, pb.Stream, wantA, wantB)
		}
	}
}

// TestMatMulCheckpointOnEveryKind saves and restores a layer pair
// mid-training onto either kind of encrypted copy a half can hold: the packed
// one of the training exchange (ResumeExchange), or the one value per
// ciphertext of the serve exchange (ServeStart). Weights and momentum survive
// the gob state, and the restored pair then trains, or serves, exactly as
// the original does.
func TestMatMulCheckpointOnEveryKind(t *testing.T) {
	for _, packed := range []bool{false, true} {
		t.Run(fmt.Sprintf("packed=%v", packed), func(t *testing.T) {
			pa, pb := pipe(t, 706)
			cfg := Config{Out: 2, LR: 0.1, Momentum: 0.9}
			la, lb := newMatMulPair(t, pa, pb, cfg, 3, 3)

			rng := rand.New(rand.NewSource(7))
			train := func(a *MatMulA, b *MatMulB) *tensor.Dense {
				xA := tensor.RandDense(rng, 4, 3, 1)
				xB := tensor.RandDense(rng, 4, 3, 1)
				g := tensor.RandDense(rng, 4, 2, 1)
				if err := protocol.RunParties(pa, pb,
					func() { a.Forward(DenseFeatures{xA}); a.Backward() },
					func() { b.Forward(DenseFeatures{xB}); b.Backward(g) },
				); err != nil {
					t.Fatal(err)
				}
				return DebugWeightsA(a, b)
			}
			serve := func(a *MatMulA, b *MatMulB) *tensor.Dense {
				xA := tensor.RandDense(rng, 4, 3, 1)
				xB := tensor.RandDense(rng, 4, 3, 1)
				var z *hetensor.BigMatrix
				if err := protocol.RunParties(pa, pb,
					func() { a.ServeStart(); a.ServeForward(xA) },
					func() { b.ServeStart(); z = b.ServeShare(xB) },
				); err != nil {
					t.Fatal(err)
				}
				return z.DecodeTranspose()
			}
			train(la, lb) // momentum buffers now non-nil

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
			// Restored halves reconstruct the same weights...
			if !DebugWeightsA(la2, lb2).Equal(DebugWeightsA(la, lb), 0) || !DebugWeightsB(la2, lb2).Equal(DebugWeightsB(la, lb), 0) {
				t.Fatal("restored weights differ")
			}
			// ...and, once an exchange has minted their encrypted copies (a
			// checkpoint holds no ciphertexts), carry on identically: the same
			// batch through the original and the restored pair (rng reset so
			// the draws coincide).
			next := serve
			if packed {
				next = train
				if err := protocol.RunParties(pa, pb, la2.ResumeExchange, lb2.ResumeExchange); err != nil {
					t.Fatal(err)
				}
			}
			rng = rand.New(rand.NewSource(8))
			want := next(la, lb)
			rng = rand.New(rand.NewSource(8))
			if got := next(la2, lb2); !got.Equal(want, 1e-6) {
				t.Fatalf("the restored pair diverges by %g", got.Sub(want).MaxAbs())
			}
		})
	}
}
