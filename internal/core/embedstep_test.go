package core

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// embedCatCfg is the Embed-MatMul layer of the benchmark's embed_cat workload
// (benchmark/workloads.go: WDL, 4 categorical fields split two a party,
// vocabulary 32, embedding dimension 8, hidden 8, batch 16) under the
// optimizer the trainer gives it.
func embedCatCfg() EmbedConfig {
	return EmbedConfig{
		Config: Config{Out: 8, LR: 0.05, Momentum: 0.9},
		VocabA: 32, VocabB: 32, FieldsA: 2, FieldsB: 2, Dim: 8,
	}
}

const embedCatBatch = 16

// embedCatStep runs one forward + backward on a fresh embed_cat-shaped batch.
func embedCatStep(tb testing.TB, rng *rand.Rand, pa, pb *protocol.Peer, la *EmbedMatMulA, lb *EmbedMatMulB) {
	cfg := la.cfg
	xA := randIdx(rng, embedCatBatch, cfg.FieldsA, cfg.VocabA)
	xB := randIdx(rng, embedCatBatch, cfg.FieldsB, cfg.VocabB)
	gradZ := tensor.RandDense(rng, embedCatBatch, cfg.Out, 0.05)
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(xA); la.Backward() },
		func() { lb.Forward(xB); lb.Backward(gradZ) },
	); err != nil {
		tb.Fatal(err)
	}
}

// deployedPipe opens a Pair under the benchmark's deployment options
// (short-exponent pools of 256, a 64 MiB table cache; spot adds the decrypt
// spot-check) on the 512-bit test keys or the 1024-bit pair, and undoes the
// process-wide part of them when the benchmark ends.
func deployedPipe(b *testing.B, bits int, seed int64, spot bool) (pa, pb *protocol.Peer) {
	skA, skB := protocol.TestKeys()
	if bits != 512 {
		skA, skB = testKeys1024(b)
	}
	for _, sk := range []*paillier.PrivateKey{skA, skB} {
		paillier.RegisterPool(paillier.NewPool(&sk.PublicKey, 256, 0, paillier.Rand, paillier.WithShortExp(400)))
	}
	hetensor.SetTableCacheBudget(64 << 20)
	b.Cleanup(func() {
		for _, sk := range []*paillier.PrivateKey{skA, skB} {
			if p := paillier.PoolFor(&sk.PublicKey); p != nil {
				paillier.UnregisterPool(&sk.PublicKey)
				p.Close()
			}
		}
		hetensor.SetTableCacheBudget(0)
		hetensor.ResetTableCache()
	})
	pa, pb, err := protocol.Pipe(skA, skB, seed)
	if err != nil {
		b.Fatal(err)
	}
	pb.SpotCheck = spot
	return pa, pb
}

var (
	keys1024Once sync.Once
	keys1024     [2]*paillier.PrivateKey
)

// testKeys1024 is a process-wide pair at the embed_cat and sparse_wan key
// size, where a ciphertext has K = 8 default lanes.
func testKeys1024(tb testing.TB) (*paillier.PrivateKey, *paillier.PrivateKey) {
	keys1024Once.Do(func() {
		for i := range keys1024 {
			sk, err := paillier.GenerateKey(paillier.Rand, 1024)
			if err != nil {
				tb.Fatal(err)
			}
			keys1024[i] = sk
		}
	})
	return keys1024[0], keys1024[1]
}

// BenchmarkEmbedStep is one Embed-MatMul forward + backward at embed_cat's
// geometry under the benchmark's deployment options (short-exponent pools,
// 64 MiB table cache): the layer alone, without the
// wide part and the head a WDL step carries. `make profile-embed` profiles
// the 1024-bit row; -short (bench-smoke) keeps only the 512-bit one.
func BenchmarkEmbedStep(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(strconv.Itoa(bits), func(b *testing.B) {
			if bits > 512 && testing.Short() {
				b.Skip("1024-bit row skipped in -short mode")
			}
			pa, pb := deployedPipe(b, bits, 818, false)
			la, lb := newEmbedPair(b, pa, pb, embedCatCfg())
			rng := rand.New(rand.NewSource(18))
			embedCatStep(b, rng, pa, pb, la, lb) // warm-up: pools primed, ghosts seen
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				embedCatStep(b, rng, pa, pb, la, lb)
			}
		})
	}
}

// spyConn hands every ciphertext matrix this end ships to see.
type spyConn struct {
	transport.Conn
	see func(*hetensor.Matrix)
}

func (c spyConn) Send(v any) error {
	if ch, ok := v.(*transport.StreamChunk); ok {
		if m, ok := ch.V.(*hetensor.Matrix); ok {
			c.see(m)
		}
	}
	return c.Conn.Send(v)
}

// spiedEmbedPair opens an embed_cat-shaped layer pair on the test keys whose
// two directions report what they ship to seeA and seeB.
func spiedEmbedPair(t *testing.T, seeA, seeB func(*hetensor.Matrix)) (pa, pb *protocol.Peer, la *EmbedMatMulA, lb *EmbedMatMulB) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	ca, cb := transport.Pair(4096)
	pa, pb, err := protocol.PipeOn(spyConn{ca, seeA}, spyConn{cb, seeB}, skA, skB, 819)
	if err != nil {
		t.Fatal(err)
	}
	la, lb = newEmbedPair(t, pa, pb, embedCatCfg())
	return pa, pb, la, lb
}

// TestEmbedStepCiphertextBudget pins how many ciphertexts one packed step at
// embed_cat's geometry puts on the wire, transfer by transfer: a transfer
// that falls back to one value per ciphertext fails a count here, not a
// timing somewhere else. With g(n) = ⌈n/K⌉ ciphertexts per block of n values
// and w(n) = ⌈n/⌊K/2⌋⌉ in wide lanes, batch b, f fields a party, dimension
// d, vocabulary v and out o:
//
//	forward   lookups 2·b·f·g(d), the four masked products 4·b·w(o)
//	backward  ⟦∇Z⟧ b·g(o) in lanes + b·o per value, ⟦∇Z·V_Aᵀ⟧ b·f·g(d),
//	          the two gradient conversions 2·f·d·g(o),
//	          mirrors ⟦U⟧, ⟦V⟧ 4·f·d·w(o) and ⟦Vᵀ⟧ 2·o·f·g(d),
//	          table gradients 2·v·g(d), table mirrors 2·v·g(d)
//
// At the workload's 1024-bit keys (K = 8) that is 64 + 128 + 176 + 32 + 128 +
// 32 + 64 + 64 = 688 ciphertexts shipped a step, 288 of them decrypted (the
// lookups, the four products, the two conversions, the table gradients);
// every one shipped is one encryption. With one value per ciphertext
// throughout it was 2 304 shipped, 2 560 encrypted and 1 344 decrypted.
func TestEmbedStepCiphertextBudget(t *testing.T) {
	var fromA, fromB int // each written by its own party's goroutine
	count := func(n *int) func(*hetensor.Matrix) {
		return func(m *hetensor.Matrix) { *n += len(m.C) }
	}
	pa, pb, la, lb := spiedEmbedPair(t, count(&fromA), count(&fromB))
	cfg := la.cfg
	k := hetensor.Lanes(pa.PeerPK)
	g := func(n int) int { return (n + k - 1) / k }
	w := func(n int) int { return (n + k/2 - 1) / (k / 2) }
	b, f, d, v, o := embedCatBatch, cfg.FieldsA, cfg.Dim, cfg.VocabA, cfg.Out
	want := 2*b*f*g(d) + 4*b*w(o) + // forward
		b*g(o) + b*o + b*f*g(d) + 2*f*d*g(o) + // derivatives
		4*f*d*w(o) + 2*o*f*g(d) + // weight mirrors
		2*v*g(d) + 2*v*g(d) // table gradients and mirrors
	rng := rand.New(rand.NewSource(19))
	for step := 0; step < 2; step++ {
		fromA, fromB = 0, 0
		embedCatStep(t, rng, pa, pb, la, lb)
		if fromA+fromB != want {
			t.Fatalf("step %d shipped %d + %d ciphertexts, want %d at K = %d", step, fromA, fromB, want, k)
		}
	}
}

// laneBits tracks, per lane width, the most bits a lane of any shipped packed
// matrix occupied (sign excluded).
type laneBits map[uint]int

// see decrypts m — the test holds both keys — and records its widest lane.
func (lb laneBits) see(p *hetensor.Matrix) {
	if int(p.W) >= p.PK.N.BitLen() {
		return // one whole-width lane: not packed
	}
	skA, skB := protocol.TestKeys()
	sk := skA
	if p.PK.N.Cmp(skB.N) == 0 {
		sk = skB
	}
	lc := fixedpoint.LaneCodec{Codec: hetensor.Codec, W: p.W, K: p.K}
	for _, c := range p.C {
		for _, lane := range lc.UnpackInts(fixedpoint.FromRing(sk.Decrypt(c), sk.N), p.K) {
			lb[p.W] = max(lb[p.W], lane.BitLen())
		}
	}
}

// TestEmbedStepLaneOccupancy is the lane-width evidence of ROADMAP item 1:
// the bits actually occupied per lane, over every packed ciphertext an
// embed_cat-shaped run ships (mirrors, derivatives, and every product with
// its mask on), against the W − 1 a signed lane holds. The default lanes must
// keep their slack; the wide lanes of the forward products must be needed —
// their sums of mask-sized × drifted-piece terms outgrow a default lane
// within one epoch — and must have room to spare.
func TestEmbedStepLaneOccupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("64 spied steps: skipped in -short")
	}
	fromA, fromB := laneBits{}, laneBits{}
	spying := false // set between steps only: decrypting every step would triple the run
	spy := func(lb laneBits) func(*hetensor.Matrix) {
		return func(m *hetensor.Matrix) {
			if spying {
				lb.see(m)
			}
		}
	}
	pa, pb, la, lb := spiedEmbedPair(t, spy(fromA), spy(fromB))
	rng := rand.New(rand.NewSource(20))
	for step := 1; step <= 64; step++ {
		spying = step == 1 || step > 60
		embedCatStep(t, rng, pa, pb, la, lb)
		if step == 1 || step == 64 {
			for w, bits := range fromA {
				t.Logf("by step %2d: party A's %d-bit lanes hold at most %d bits, party B's %d", step, w, bits, fromB[w])
			}
		}
	}
	narrow := uint(2*hetensor.Codec.F + hetensor.PackHeadroom + 1)
	for _, side := range []laneBits{fromA, fromB} {
		if got := side[narrow]; got == 0 || got > int(narrow)-1-16 {
			t.Errorf("default lanes hold %d of %d bits: under 16 bits of slack", got, narrow-1)
		}
		if got := side[2*narrow]; got <= int(narrow)-1 || got > int(2*narrow)-1-64 {
			t.Errorf("wide lanes hold %d bits: want more than a default lane's %d and at most %d", got, narrow-1, 2*narrow-1-64)
		}
	}
}
