package core

import (
	"math/rand"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
	"blindfl/internal/transport/transporttest"
)

// groupPipe builds a k-session group sharing the two test keys.
func groupPipe(t testing.TB, k int, seed int64) ([]*protocol.Peer, *protocol.Group) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	skAs := make([]*paillier.PrivateKey, k)
	for i := range skAs {
		skAs[i] = skA
	}
	as, g, err := protocol.GroupPipe(skAs, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return as, g
}

// framedGroupPipe is groupPipe — same streams, same stream identities — with
// every session's sends reframed to f on both sides.
func framedGroupPipe(t testing.TB, k int, seed int64, f transporttest.Framing) ([]*protocol.Peer, *protocol.Group) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	as := make([]*protocol.Peer, k)
	bs := make([]*protocol.Peer, k)
	for i := 0; i < k; i++ {
		ca, cb := transport.Pair(4096)
		as[i] = protocol.NewPeer(protocol.PartyA, transporttest.NewReframe(ca, f, skA, skB), skA, seed, 0, i)
		bs[i] = protocol.NewPeer(protocol.PartyB, transporttest.NewReframe(cb, f, skA, skB), skB, seed, 0, i)
	}
	if err := protocol.HandshakeAll(append(as, bs...)...); err != nil {
		t.Fatal(err)
	}
	return as, protocol.NewGroup(bs)
}

// newMultiMatMul constructs the k A-halves and B's multi half concurrently.
func newMultiMatMul(t testing.TB, peersA []*protocol.Peer, g *protocol.Group, cfg Config, inAs []int, inB int) ([]*MatMulA, *MultiMatMulB) {
	t.Helper()
	acfg := cfg
	acfg.GroupParties = g.K()
	as := make([]*MatMulA, g.K())
	var b *MultiMatMulB
	if err := protocol.RunGroup(peersA, g,
		func(i int) { as[i] = NewMatMulA(peersA[i], acfg, inAs[i], inB) },
		func() { b = NewMultiMatMulB(g, cfg, inAs, inB, false) },
	); err != nil {
		t.Fatal(err)
	}
	return as, b
}

// vbs collects every feature party's V_B piece for DebugMultiWeightsB.
func vbs(as []*MatMulA) []*tensor.Dense {
	out := make([]*tensor.Dense, len(as))
	for i, a := range as {
		out[i] = a.VB
	}
	return out
}

// TestMultiPartyForwardBackwardMatchesPlaintext drives a k=3 group (with
// uneven feature widths) through one step and checks the aggregated
// activation and every weight update against the plaintext reference on the
// reconstructed weights — Algorithm 3's lossless property.
func TestMultiPartyForwardBackwardMatchesPlaintext(t *testing.T) {
	const k = 3
	peersA, g := groupPipe(t, k, 400)
	cfg := Config{Out: 2, LR: 0.1}
	inAs := []int{3, 4, 5}
	inB := 3
	as, b := newMultiMatMul(t, peersA, g, cfg, inAs, inB)

	rng := rand.New(rand.NewSource(1))
	xAs := make([]*tensor.Dense, k)
	for i := range xAs {
		xAs[i] = tensor.RandDense(rng, 4, inAs[i], 1)
	}
	xB := tensor.RandDense(rng, 4, inB, 1)
	gradZ := tensor.RandDense(rng, 4, cfg.Out, 1)

	want := xB.MatMul(DebugMultiWeightsB(b, vbs(as)))
	for i := 0; i < k; i++ {
		want.AddInPlace(xAs[i].MatMul(DebugMultiWeightsA(b, as[i].UA, i)))
	}
	wantWB := DebugMultiWeightsB(b, vbs(as)).Sub(xB.TransposeMatMul(gradZ).Scale(cfg.LR))
	var wantWAs []*tensor.Dense
	for i := 0; i < k; i++ {
		wantWAs = append(wantWAs, DebugMultiWeightsA(b, as[i].UA, i).Sub(xAs[i].TransposeMatMul(gradZ).Scale(cfg.LR)))
	}

	var z *tensor.Dense
	if err := protocol.RunGroup(peersA, g,
		func(i int) { as[i].Forward(DenseFeatures{xAs[i]}); as[i].Backward() },
		func() { z = b.Forward(DenseFeatures{xB}); b.Backward(gradZ) },
	); err != nil {
		t.Fatal(err)
	}

	if !z.Equal(want, 1e-4) {
		t.Fatalf("multi-party Z diverges (maxdiff %g)", z.Sub(want).MaxAbs())
	}
	if got := DebugMultiWeightsB(b, vbs(as)); !got.Equal(wantWB, 1e-4) {
		t.Fatalf("multi-party W_B update wrong (maxdiff %g)", got.Sub(wantWB).MaxAbs())
	}
	for i := 0; i < k; i++ {
		if got := DebugMultiWeightsA(b, as[i].UA, i); !got.Equal(wantWAs[i], 1e-4) {
			t.Fatalf("multi-party W_A(%d) update wrong (maxdiff %g)", i, got.Sub(wantWAs[i]).MaxAbs())
		}
	}
}

// TestMultiPartySparseMatchesPlaintext is the sparse-layer analogue: k
// sessions of the on-demand-row protocol must aggregate and update exactly
// like the plaintext reference on the touched coordinates.
func TestMultiPartySparseMatchesPlaintext(t *testing.T) {
	const k = 3
	peersA, g := groupPipe(t, k, 401)
	cfg := Config{Out: 2, LR: 0.1}
	acfg := cfg
	acfg.GroupParties = k
	inAs := []int{10, 12, 8}
	inB := 10

	as := make([]*SparseMatMulA, k)
	var b *MultiMatMulB
	if err := protocol.RunGroup(peersA, g,
		func(i int) { as[i] = NewSparseMatMulA(peersA[i], acfg, inAs[i], inB) },
		func() { b = NewMultiMatMulB(g, cfg, inAs, inB, true) },
	); err != nil {
		t.Fatal(err)
	}
	sparseVBs := func() []*tensor.Dense {
		out := make([]*tensor.Dense, k)
		for i, a := range as {
			out[i] = a.VB
		}
		return out
	}

	rng := rand.New(rand.NewSource(2))
	xAs := make([]*tensor.CSR, k)
	for i := range xAs {
		xAs[i] = tensor.RandCSR(rng, 5, inAs[i], 3)
	}
	xB := tensor.RandCSR(rng, 5, inB, 3)
	gradZ := tensor.RandDense(rng, 5, cfg.Out, 1)

	want := xB.ToDense().MatMul(DebugMultiWeightsB(b, sparseVBs()))
	for i := 0; i < k; i++ {
		want.AddInPlace(xAs[i].ToDense().MatMul(DebugMultiWeightsA(b, as[i].UA, i)))
	}
	wantWB := DebugMultiWeightsB(b, sparseVBs()).Sub(xB.ToDense().TransposeMatMul(gradZ).Scale(cfg.LR))

	var z *tensor.Dense
	if err := protocol.RunGroup(peersA, g,
		func(i int) { as[i].Forward(SparseFeatures{xAs[i]}); as[i].Backward() },
		func() { z = b.Forward(SparseFeatures{xB}); b.Backward(gradZ) },
	); err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want, 1e-4) {
		t.Fatalf("multi-party sparse Z diverges (maxdiff %g)", z.Sub(want).MaxAbs())
	}
	if got := DebugMultiWeightsB(b, sparseVBs()); !got.Equal(wantWB, 1e-4) {
		t.Fatalf("multi-party sparse W_B update wrong (maxdiff %g)", got.Sub(wantWB).MaxAbs())
	}
}

// TestMultiPartyK1BitExactTwoParty pins the degenerate group shape: a
// 1-session group is *the* two-party layer — same RNG streams (Pipe and
// GroupPipe session 0 coincide), same arithmetic — so activations and
// updated weight pieces must be bit-identical, not merely close.
func TestMultiPartyK1BitExactTwoParty(t *testing.T) {
	const seed = 402
	skA, skB := protocol.TestKeys()
	pa, pb, err := protocol.Pipe(skA, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Out: 2, LR: 0.1, Momentum: 0.9}
	la, lb := newMatMulPair(t, pa, pb, cfg, 4, 3)

	peersA, g := groupPipe(t, 1, seed)
	as, b := newMultiMatMul(t, peersA, g, cfg, []int{4}, 3)

	rng := rand.New(rand.NewSource(3))
	xA := tensor.RandDense(rng, 5, 4, 1)
	xB := tensor.RandDense(rng, 5, 3, 1)
	gradZ := tensor.RandDense(rng, 5, cfg.Out, 1)

	var z2, zk *tensor.Dense
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(DenseFeatures{xA}); la.Backward() },
		func() { z2 = lb.Forward(DenseFeatures{xB}); lb.Backward(gradZ) },
	); err != nil {
		t.Fatal(err)
	}
	if err := protocol.RunGroup(peersA, g,
		func(i int) { as[i].Forward(DenseFeatures{xA}); as[i].Backward() },
		func() { zk = b.Forward(DenseFeatures{xB}); b.Backward(gradZ) },
	); err != nil {
		t.Fatal(err)
	}

	if !zk.Equal(z2, 0) {
		t.Fatalf("k=1 group forward differs from the two-party layer (maxdiff %g)", zk.Sub(z2).MaxAbs())
	}
	if got, want := DebugMultiWeightsA(b, as[0].UA, 0), DebugWeightsA(la, lb); !got.Equal(want, 0) {
		t.Fatalf("k=1 group W_A differs bitwise after backward (maxdiff %g)", got.Sub(want).MaxAbs())
	}
	if got, want := DebugMultiWeightsB(b, vbs(as)), DebugWeightsB(la, lb); !got.Equal(want, 0) {
		t.Fatalf("k=1 group W_B differs bitwise after backward (maxdiff %g)", got.Sub(want).MaxAbs())
	}
}

// TestMultiPartyPackedStreamMatchesPlaintext runs the k=3 dense group on a
// batch that fits one chunk, on one that streams in several, and with every
// transfer reframed to one value per ciphertext in 2-row chunks: per-session
// lanes and streaming must compose with the group aggregation and stay on
// the plaintext reference.
func TestMultiPartyPackedStreamMatchesPlaintext(t *testing.T) {
	if testing.Short() {
		t.Skip("packed/stream multi-party variants skipped in -short")
	}
	for _, tc := range []struct {
		name    string
		batch   int
		framing *transporttest.Framing // nil: the engine's own
	}{
		{"packed", 6, nil},
		{"streamed", 6, &transporttest.Framing{Span: 2}},
		{"packed+streamed", 2*protocol.DefaultChunkRows + 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k = 3
			peersA, g := groupPipe(t, k, 403)
			if tc.framing != nil {
				peersA, g = framedGroupPipe(t, k, 403, *tc.framing)
			}
			cfg := Config{Out: 2, LR: 0.1}
			inAs := []int{4, 3, 5}
			inB := 4
			as, b := newMultiMatMul(t, peersA, g, cfg, inAs, inB)

			rng := rand.New(rand.NewSource(4))
			xAs := make([]*tensor.Dense, k)
			for i := range xAs {
				xAs[i] = tensor.RandDense(rng, tc.batch, inAs[i], 1)
			}
			xB := tensor.RandDense(rng, tc.batch, inB, 1)
			gradZ := tensor.RandDense(rng, tc.batch, cfg.Out, 1)

			want := xB.MatMul(DebugMultiWeightsB(b, vbs(as)))
			for i := 0; i < k; i++ {
				want.AddInPlace(xAs[i].MatMul(DebugMultiWeightsA(b, as[i].UA, i)))
			}
			wantWB := DebugMultiWeightsB(b, vbs(as)).Sub(xB.TransposeMatMul(gradZ).Scale(cfg.LR))

			var z *tensor.Dense
			if err := protocol.RunGroup(peersA, g,
				func(i int) { as[i].Forward(DenseFeatures{xAs[i]}); as[i].Backward() },
				func() { z = b.Forward(DenseFeatures{xB}); b.Backward(gradZ) },
			); err != nil {
				t.Fatal(err)
			}
			if !z.Equal(want, 1e-4) {
				t.Fatalf("%s multi-party Z diverges (maxdiff %g)", tc.name, z.Sub(want).MaxAbs())
			}
			if got := DebugMultiWeightsB(b, vbs(as)); !got.Equal(wantWB, 1e-4) {
				t.Fatalf("%s multi-party W_B update wrong (maxdiff %g)", tc.name, got.Sub(wantWB).MaxAbs())
			}
		})
	}
}

// TestMultiPartySessionFailureTearsDownLayer: a transport failure injected
// mid-step in one session must surface as an error from RunGroup (not a
// hang) even though the other sessions are deep inside their sub-protocols.
func TestMultiPartySessionFailureTearsDownLayer(t *testing.T) {
	const k = 3
	peersA, g := groupPipe(t, k, 404)
	cfg := Config{Out: 1, LR: 0.1}
	inAs := []int{3, 3, 3}
	as, b := newMultiMatMul(t, peersA, g, cfg, inAs, 3)

	rng := rand.New(rand.NewSource(5))
	xAs := make([]*tensor.Dense, k)
	for i := range xAs {
		xAs[i] = tensor.RandDense(rng, 4, inAs[i], 1)
	}
	xB := tensor.RandDense(rng, 4, 3, 1)

	err := protocol.RunGroup(peersA, g,
		func(i int) {
			if i == 1 {
				peersA[i].Conn.Close() // the feature party dies mid-step
				return
			}
			as[i].Forward(DenseFeatures{xAs[i]})
		},
		func() { b.Forward(DenseFeatures{xB}) },
	)
	if err == nil {
		t.Fatal("expected an error after a mid-step session failure")
	}
}
