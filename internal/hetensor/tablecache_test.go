package hetensor

import (
	"math/big"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// withCacheBudget runs f with the process-wide table cache set to budget,
// restoring the disabled state (and dropping all entries) afterwards.
func withCacheBudget(t *testing.T, budget int64, f func()) {
	t.Helper()
	SetTableCacheBudget(budget)
	ResetTableCache()
	defer func() {
		SetTableCacheBudget(0)
		ResetTableCache()
	}()
	f()
}

func denseEq(t *testing.T, a, b *CipherMatrix, what string) {
	t.Helper()
	if len(a.C) != len(b.C) {
		t.Fatalf("%s: %d vs %d cells", what, len(a.C), len(b.C))
	}
	for i := range a.C {
		if a.C[i].C.Cmp(b.C[i].C) != 0 {
			t.Fatalf("%s: cell %d is not bit-identical", what, i)
		}
	}
}

// TestTableCacheBitExact: cached evaluations must be bit-identical to the
// uncached engine (the cache only changes when and at what width tables are
// built, never the group element computed), and a recurring encrypted matrix
// must be admitted on its second invocation and hit from the third.
func TestTableCacheBitExact(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(3))
	x1 := tensor.RandDense(rng, 5, 12, 2)
	x2 := tensor.RandDense(rng, 7, 12, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 12, 3, 2), 1)

	cold1 := MulPlainLeft(x1, w)
	cold2 := MulPlainLeft(x2, w)
	gT := Encrypt(pk, tensor.RandDense(rng, 5, 3, 0.5), 1)
	coldT := TransposeMulLeft(x1, gT)
	coldR := MulPlainRightTranspose(gT, tensor.RandDense(rand.New(rand.NewSource(9)), 4, 3, 1))

	withCacheBudget(t, 64<<20, func() {
		denseEq(t, cold1, MulPlainLeft(x1, w), "MulPlainLeft first sighting")
		if s := TableCacheStatsNow(); s.Misses != 1 || s.Entries != 0 {
			t.Fatalf("stats %+v: a first sighting is one miss and builds nothing", s)
		}
		denseEq(t, cold2, MulPlainLeft(x2, w), "MulPlainLeft admission") // same bases, different exponents
		denseEq(t, cold1, MulPlainLeft(x1, w), "MulPlainLeft warm")
		if s := TableCacheStatsNow(); s.Misses != 2 || s.Hits != 1 || s.Entries != 1 || s.Bytes <= 0 {
			t.Fatalf("stats %+v: want ghost miss, build miss, then a hit on one entry", s)
		}
		for i := 0; i < 3; i++ { // gT recurs under two orientations
			denseEq(t, coldT, TransposeMulLeft(x1, gT), "TransposeMulLeft")
			denseEq(t, coldR, MulPlainRightTranspose(gT, tensor.RandDense(rand.New(rand.NewSource(9)), 4, 3, 1)), "MulPlainRightTranspose")
		}
		if s := TableCacheStatsNow(); s.Entries != 3 {
			t.Fatalf("stats %+v: want w plus gT's column and row tables", s)
		}
	})
}

// TestTableCachePackedBitExact covers the packed kernels.
func TestTableCachePackedBitExact(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandDense(rng, 6, 10, 2)
	w := PackEncrypt(pk, tensor.RandDense(rng, 10, 4, 2), 1)
	cold := MulPlainLeftPacked(x, w)
	withCacheBudget(t, 64<<20, func() {
		for call := 0; call < 3; call++ {
			warm := MulPlainLeftPacked(x, w)
			for i := range cold.C {
				if cold.C[i].C.Cmp(warm.C[i].C) != 0 {
					t.Fatalf("call %d: packed cell %d is not bit-identical", call, i)
				}
			}
		}
		if s := TableCacheStatsNow(); s.Hits != 1 {
			t.Fatalf("stats %+v: third packed call should hit", s)
		}
	})
}

// TestTableCacheEviction: entries accumulated across many distinct matrices
// must evict LRU-first once the budget fills, keep the byte accounting under
// the budget, and stay exact throughout.
func TestTableCacheEviction(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandDense(rng, 3, 8, 2)
	ws := make([]*CipherMatrix, 6)
	cold := make([]*CipherMatrix, len(ws))
	for i := range ws {
		ws[i] = Encrypt(pk, tensor.RandDense(rng, 8, 2, 2), 1)
		cold[i] = MulPlainLeft(x, ws[i])
	}
	const budget = 512 << 10 // holds roughly half the 6 matrices' tables
	withCacheBudget(t, budget, func() {
		for i := range ws {
			denseEq(t, cold[i], MulPlainLeft(x, ws[i]), "first-sighting MulPlainLeft")
		}
		if s := TableCacheStatsNow(); s.Evicted != 0 || s.Entries != 0 {
			t.Fatalf("stats %+v: first sightings must not build or evict", s)
		}
		for i := range ws {
			denseEq(t, cold[i], MulPlainLeft(x, ws[i]), "evicting MulPlainLeft")
		}
		s := TableCacheStatsNow()
		if s.Evicted == 0 {
			t.Fatalf("stats %+v: accumulated working set over budget must evict", s)
		}
		if s.Bytes > budget {
			t.Fatalf("stats %+v: cache bytes exceed the budget", s)
		}
		denseEq(t, cold[0], MulPlainLeft(x, ws[0]), "post-eviction MulPlainLeft")
	})
}

// TestTableCacheOversizedInvocationBypasses: when one invocation's whole
// table working set cannot fit the budget at a worthwhile window, the call
// must bypass the cache (no thrash: no inserts, no self-eviction) and fall
// back to the per-call tiers.
func TestTableCacheOversizedInvocationBypasses(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(27))
	x := tensor.RandDense(rng, 3, 16, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 16, 40, 2), 1) // 40 columns of tables
	cold := MulPlainLeft(x, w)
	withCacheBudget(t, 64<<10, func() {
		denseEq(t, cold, MulPlainLeft(x, w), "bypassing MulPlainLeft")
		if s := TableCacheStatsNow(); s.Entries != 0 || s.Evicted != 0 {
			t.Fatalf("stats %+v: oversized invocation must bypass, not thrash", s)
		}
	})
}

// TestTableCacheAnonymousSourcesBypass: accumulators and row-slice views
// (identity 0) must never insert cache entries — their cells can be
// replaced, so cached tables could go stale.
func TestTableCacheAnonymousSourcesBypass(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandDense(rng, 4, 8, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 8, 2, 2), 1)
	withCacheBudget(t, 64<<20, func() {
		view := w.RowSlice(0, 8) // full view, but still an anonymous source
		MulLeft(x, view)
		if s := TableCacheStatsNow(); s.Entries != 0 {
			t.Fatalf("stats %+v: row-slice view must bypass the cache", s)
		}
		acc := NewCipherMatrix(pk, 8, 2, 1) // mutable accumulator
		MulPlainLeft(x, acc)
		if s := TableCacheStatsNow(); s.Entries != 0 {
			t.Fatalf("stats %+v: accumulator must bypass the cache", s)
		}
	})
}

// TestTableCacheConcurrent hammers one encrypted matrix from several
// goroutines (the -cpu 1,4 CI lane runs this under the race detector).
func TestTableCacheConcurrent(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(13))
	x := tensor.RandDense(rng, 3, 8, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 8, 3, 2), 1)
	want := MulPlainLeft(x, w)
	withCacheBudget(t, 32<<20, func() {
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					got := MulPlainLeft(x, w)
					for j := range want.C {
						if got.C[j].C.Cmp(want.C[j].C) != 0 {
							errs <- "concurrent cached result diverged"
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	})
}

// TestTableCacheCRTMode: cached tables built while SecretOps is registered
// evaluate through the dual-chain path and stay bit-identical.
func TestTableCacheCRTMode(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(17))
	x := tensor.RandDense(rng, 4, 8, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 8, 2, 2), 1)
	cold := MulPlainLeft(x, w)
	paillier.RegisterSecretOps(k)
	defer paillier.UnregisterSecretOps(pk)
	withCacheBudget(t, 32<<20, func() {
		denseEq(t, cold, MulPlainLeft(x, w), "CRT first sighting")
		denseEq(t, cold, MulPlainLeft(x, w), "CRT cached build")
		denseEq(t, cold, MulPlainLeft(x, w), "CRT cached hit")
		if s := TableCacheStatsNow(); s.Hits == 0 {
			t.Fatalf("stats %+v: CRT-mode reuse should hit", s)
		}
	})
}

// TestTableCacheAdmission is the budget-honesty contract over a mixed serve
// + train sequence: fixed serve weights hit from their third invocation,
// single-use training matrices only ever pass through the ghost set (a miss
// each, nothing built, nothing evicted), the accounted bytes — powers and
// inverse powers — never exceed the budget, and the ghost set is bounded.
func TestTableCacheAdmission(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(23))
	v := Encrypt(pk, tensor.RandDense(rng, 8, 2, 1), 1) // fixed serve weights
	req := tensor.RandDense(rng, 3, 8, 1)
	x := tensor.RandDense(rng, 4, 8, 2)
	const budget = 4 << 20 // half of it holds the serve tables at the full cache window
	withCacheBudget(t, budget, func() {
		under := func(when string) TableCacheStats {
			s := TableCacheStatsNow()
			if s.Bytes > s.Budget || s.Budget != budget {
				t.Fatalf("%s: stats %+v exceed the budget", when, s)
			}
			return s
		}
		want := ServeProducts(req, v.Anonymous().(*CipherMatrix)) // anonymous: uncached
		for step := 0; step < 6; step++ {
			got := ServeProducts(req, v)
			for i := range want.C {
				if got.C[i].C.Cmp(want.C[i].C) != 0 {
					t.Fatalf("step %d: serve cell %d is not bit-identical", step, i)
				}
			}
			before := under("serve")
			w := Encrypt(pk, tensor.RandDense(rng, 8, 2, 2), 1) // re-encrypted every step
			MulPlainLeft(x, w)
			g := PackEncrypt(pk, tensor.RandDense(rng, 4, 3, 1), 1)
			TransposeMulLeftPacked(x, g)
			after := under("train")
			if after.Misses != before.Misses+2 || after.Entries != before.Entries || after.Evicted != 0 {
				t.Fatalf("step %d: single-use matrices moved the cache: %+v -> %+v", step, before, after)
			}
		}
		if s := under("end"); s.Hits != 4 || s.Entries != 1 || s.Bytes != pk.DotTableBytes(8*2, 8) {
			t.Fatalf("stats %+v: want serve hits from the third invocation on one %d-byte entry",
				s, pk.DotTableBytes(8*2, 8))
		}
		// More first sightings than the ghost set holds: an ID it has
		// forgotten is a first sighting again, not an admission.
		first := Encrypt(pk, tensor.RandDense(rng, 1, 1, 1), 1)
		one := tensor.RandDense(rng, 1, 1, 1)
		w := Encrypt(pk, tensor.RandDense(rng, 1, 1, 1), 1)
		MulPlainLeft(one, first)
		for i := 0; i < ghostCap; i++ {
			w.MintID()
			MulPlainLeft(one, w)
		}
		MulPlainLeft(one, first)
		if s := under("ghosts"); s.Entries != 1 || s.Evicted != 0 {
			t.Fatalf("stats %+v: a forgotten ghost must not be admitted", s)
		}
		MulPlainLeft(one, first)
		if s := under("readmit"); s.Entries != 2 {
			t.Fatalf("stats %+v: the second sighting in a row is admitted", s)
		}
	})
}

func BenchmarkMulPlainLeftWarmCache(b *testing.B) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(19))
	x := tensor.RandDense(rng, 8, 16, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 16, 2, 2), 1)
	prev := SetTableCacheBudget(64 << 20)
	ResetTableCache()
	defer func() {
		SetTableCacheBudget(prev)
		ResetTableCache()
	}()
	MulPlainLeft(x, w) // first sighting
	MulPlainLeft(x, w) // admitted: warm the tables
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeft(x, w)
	}
}

func BenchmarkMulPlainLeftUncached(b *testing.B) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(19))
	x := tensor.RandDense(rng, 8, 16, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 16, 2, 2), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeft(x, w)
	}
}

// fakeKey is a random odd modulus of the given width, not a key: the kernel
// benchmarks below never decrypt.
func fakeKey(rng *rand.Rand, bits int) *paillier.PublicKey {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits-1)))
	n.SetBit(n, bits-1, 1).SetBit(n, 0, 1)
	return &paillier.PublicKey{N: n, N2: new(big.Int).Mul(n, n)}
}

// BenchmarkDotGrid is the dense fed step's forward kernel — a 32×14 plaintext
// batch times a packed 14×16 encrypted weight piece — under the deployment's
// cache budget, with the weights minted a fresh identity every iteration as a
// re-encrypted ⟦V⟧ is: always a first sighting, so the per-call table build
// and the single-chain evaluation are both in the loop. `make profile-dot`
// profiles the 2048-bit row; -short (bench-smoke) keeps only the 512-bit one.
func BenchmarkDotGrid(b *testing.B) {
	for _, bits := range []int{512, 2048} {
		b.Run(strconv.Itoa(bits), func(b *testing.B) {
			if bits > 512 && testing.Short() {
				b.Skip("2048-bit row skipped in -short mode")
			}
			rng := rand.New(rand.NewSource(29))
			pk := fakeKey(rng, bits)
			x := tensor.RandDense(rng, 32, 14, 2)
			w := PackEncrypt(pk, tensor.RandDense(rng, 14, 16, 2), 1)
			prev := SetTableCacheBudget(64 << 20)
			ResetTableCache()
			defer func() {
				SetTableCacheBudget(prev)
				ResetTableCache()
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.MintID()
				MulPlainLeftPacked(x, w)
			}
		})
	}
}

// BenchmarkServeProducts is serve_batched's homomorphic half at its geometry —
// 32 requests × 14 features against a 14×1 encrypted weight column — with the
// table cache warm, as it is for the whole life of a serve session: what is
// timed is the lane-packed (~K·W-bit) chains over cached tables, nothing else.
// `make profile-serve` profiles the 2048-bit row; -short keeps the 512-bit one.
func BenchmarkServeProducts(b *testing.B) {
	for _, bits := range []int{512, 2048} {
		b.Run(strconv.Itoa(bits), func(b *testing.B) {
			if bits > 512 && testing.Short() {
				b.Skip("2048-bit row skipped in -short mode")
			}
			rng := rand.New(rand.NewSource(31))
			pk := fakeKey(rng, bits)
			x := tensor.RandDense(rng, 32, 14, 2)
			v := Encrypt(pk, tensor.RandDense(rng, 14, 1, 2), 1)
			prev := SetTableCacheBudget(64 << 20)
			ResetTableCache()
			defer func() {
				SetTableCacheBudget(prev)
				ResetTableCache()
			}()
			ServeProducts(x, v) // first sighting
			ServeProducts(x, v) // admitted: the tables are built here
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ServeProducts(x, v)
			}
		})
	}
}
