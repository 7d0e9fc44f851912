package hetensor

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// serveReference is the R = 1 kernel spelled out: for every lane group and
// weight column, one DotRow over the column's bases with each feature's
// lanes packed into one signed exponent. Residues in the result's cell order.
func serveReference(x *tensor.Dense, v *Matrix) []*big.Int {
	lc := packingFor(v.PK)
	groups := (x.Rows + lc.K - 1) / lc.K
	res := make([]*big.Int, v.Cols*groups)
	for g := 0; g < groups; g++ {
		lo, hi := g*lc.K, min((g+1)*lc.K, x.Rows)
		for j := 0; j < v.Cols; j++ {
			col := make([]*paillier.Ciphertext, x.Cols)
			es := make([]paillier.SignedExp, x.Cols)
			for k := range col {
				lanes := make([]*big.Int, hi-lo)
				for i := lo; i < hi; i++ {
					lanes[i-lo] = Codec.Encode(x.At(i, k), 1)
				}
				p := lc.PackEncoded(lanes)
				col[k], es[k] = v.Row(k)[j], paillier.SignedExp{Mag: new(big.Int).Abs(p), Neg: p.Sign() < 0}
			}
			res[j*groups+g] = v.PK.DotRow(col, es).C
		}
	}
	return res
}

// requireServeResidues fails unless ServeProducts(x, v) is the reference
// residue for residue.
func requireServeResidues(t *testing.T, what string, x *tensor.Dense, v *Matrix, want []*big.Int) {
	t.Helper()
	got := ServeProducts(x, v)
	if len(got.C) != len(want) {
		t.Fatalf("%s: %d cells, reference %d", what, len(got.C), len(want))
	}
	for i, c := range got.C {
		if c.C.Cmp(want[i]) != 0 {
			t.Fatalf("%s: cell %d is not the packed-exponent residue", what, i)
		}
	}
}

// TestServeProductsCombRows: whatever comb rows the cache gives a serve
// source — none (cache off), as many as a small budget affords (two of the
// test key's four lanes), or one per lane (64 MiB) — the product is the
// packed-exponent DotRow residue for residue, at fills below, at, past and
// well past one lane group, on signed features; and a source first seen at
// fill 1 gains its rows when a full group arrives.
func TestServeProductsCombRows(t *testing.T) {
	pk := &testKey.PublicKey
	K := Lanes(pk)
	const inner, out = 6, 2
	rng := rand.New(rand.NewSource(47))
	v := Encrypt(pk, mixedDense(rng, inner, out), 1)
	row := inner * out
	// Half the small budget holds two rows at window 4 and not three.
	small := 2 * (pk.DotTableBytes(2*row, 4) + pk.DotTableBytes(row, 4)/2)
	for _, tc := range []struct {
		name       string
		budget     int64
		rows       int  // rows a full group ends up with
		w1, wFull  uint // the entry's window at one row and at rows
		cachedRows bool
	}{
		{"off", 0, 0, 0, 0, false},
		{"small", small, 2, 5, 4, true}, // one row fits at window 5, two only at window 4
		{"64MiB", 64 << 20, K, 8, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withCacheBudget(t, tc.budget, func() {
				for _, fill := range []int{1, K - 1, K, K + 1, 2*K + 1} {
					x := mixedDense(rng, fill, inner)
					want := serveReference(x, v)
					v.MintID() // a new source: first sighting, admission, hit
					for call := 0; call < 3; call++ {
						requireServeResidues(t, fmt.Sprintf("fill %d call %d", fill, call), x, v, want)
					}
				}
				// One source seen at fill 1, then at a full group.
				ResetTableCache()
				v.MintID()
				x1, xK := mixedDense(rng, 1, inner), mixedDense(rng, K, inner)
				want1, wantK := serveReference(x1, v), serveReference(xK, v)
				for call := 0; call < 3; call++ {
					requireServeResidues(t, "fill 1", x1, v, want1)
				}
				if s := TableCacheStatsNow(); tc.cachedRows && s.Bytes != pk.DotTableBytes(row, tc.w1) {
					t.Fatalf("stats %+v: fill 1 builds one row at window %d", s, tc.w1)
				}
				for call := 0; call < 2; call++ {
					requireServeResidues(t, "full group after fill 1", xK, v, wantK)
				}
				requireServeResidues(t, "fill 1 on the grown entry", x1, v, want1)
				s := TableCacheStatsNow()
				if tc.cachedRows && (s.Entries != 1 || s.Bytes != pk.DotTableBytes(tc.rows*row, tc.wFull)) {
					t.Fatalf("stats %+v: want one entry of %d rows at window %d", s, tc.rows, tc.wFull)
				}
				if !tc.cachedRows && s.Entries != 0 {
					t.Fatalf("stats %+v: cache off builds nothing", s)
				}
			})
		})
	}
}

// TestServeCombBudget puts the two serve weight matrices of a session (A's
// and B's: 14 features, one column) under one budget in the benchmark's
// proportion — 64 MiB against two 2048-bit entries of 16 rows at window 7 —
// scaled to the test key. One-lane traffic builds exactly the one row the
// packed kernel builds; full groups then rebuild each entry at the narrower
// window all rows fit; and from there mixed fills never evict.
func TestServeCombBudget(t *testing.T) {
	pk := &testKey.PublicKey
	K := Lanes(pk)
	const inner = 14
	rng := rand.New(rand.NewSource(59))
	full := pk.DotTableBytes(inner*K, 7)
	bench := fakeKey(rng, 2048).DotTableBytes(inner*16, 7)
	budget := 2 * full * (64 << 20) / (2 * bench)
	vA := Encrypt(pk, mixedDense(rng, inner, 1), 1)
	vB := Encrypt(pk, mixedDense(rng, inner, 1), 1)
	nonzero := func(rows int) *tensor.Dense { // every feature live, as the packed kernel's entry assumes
		x := tensor.RandDense(rng, rows, inner, 2)
		for i := range x.Data {
			if x.Data[i] == 0 {
				x.Data[i] = 0.5
			}
		}
		return x
	}
	withCacheBudget(t, budget, func() {
		x1 := nonzero(1)
		want1 := serveReference(x1, vA)
		for call := 0; call < 4; call++ {
			requireServeResidues(t, "fill 1", x1, vA, want1)
		}
		bits := 0
		for k := 0; k < inner; k++ {
			bits = max(bits, Codec.Encode(x1.At(0, k), 1).BitLen())
		}
		packed := pk.DotTableBytes(inner, cacheWindow(inner, 1, bits, pk, budget)) // what cachedTables builds
		if s := TableCacheStatsNow(); s.Entries != 1 || s.Bytes != packed || packed != pk.DotTableBytes(inner, 8) {
			t.Fatalf("stats %+v: fill-1 traffic must build the packed kernel's %d bytes", s, packed)
		}
		xK := nonzero(K)
		for _, v := range []*Matrix{vA, vB, vB, vB} {
			requireServeResidues(t, "warm-up", xK, v, serveReference(xK, v))
		}
		warm := TableCacheStatsNow()
		if warm.Entries != 2 || warm.Bytes != 2*full || warm.Evicted != 0 {
			t.Fatalf("stats %+v: want both entries at %d rows, window 7, %d bytes each", warm, K, full)
		}
		for i := 0; i < 50; i++ {
			v := vA
			if i%2 == 1 {
				v = vB
			}
			x := nonzero(1 + rng.Intn(2*K+1))
			requireServeResidues(t, fmt.Sprintf("mixed call %d", i), x, v, serveReference(x, v))
		}
		if s := TableCacheStatsNow(); s.Evicted != 0 || s.Entries != 2 || s.Bytes != 2*full || s.Misses != warm.Misses {
			t.Fatalf("stats %+v after warm-up %+v: mixed fills must hit both entries and evict nothing", s, warm)
		}
	})
}

// TestServeMaskBits: serve masks are exactly ServeMaskBits bits — the top bit
// is reachable and nothing above it is.
func TestServeMaskBits(t *testing.T) {
	prod := NewPackedMatrix(&testKey.PublicKey, 64, 64, 64, 2)
	s, _ := ServeMask(rand.New(rand.NewSource(61)), prod)
	top := 0
	for _, v := range s.V {
		top = max(top, v.BitLen())
	}
	if len(s.V) != 4096 || top != ServeMaskBits {
		t.Fatalf("largest of %d masks has %d bits, want exactly %d", len(s.V), top, ServeMaskBits)
	}
}

// checkServeCase is FuzzKernels' ServeProducts case: a fresh source under
// budget, seen at its full fill, then at a prefix (admission), then at its
// full fill again (row growth), each call against the packed reference.
func checkServeCase(t *testing.T, seed int64, fill, inner, out int, budget int64) {
	pk := &testKey.PublicKey
	rng := rand.New(rand.NewSource(seed))
	v := Encrypt(pk, mixedDense(rng, inner, out), 1)
	x := mixedDense(rng, fill, inner)
	head := x.RowSlice(0, 1+rng.Intn(fill))
	want, wantHead := serveReference(x, v), serveReference(head, v)
	name := fmt.Sprintf("ServeProducts %d×%d·%d×%d budget %d", fill, inner, inner, out, budget)
	withCacheBudget(t, budget, func() {
		requireServeResidues(t, name+" first sighting", x, v, want)
		requireServeResidues(t, name+" admission", head, v, wantHead)
		requireServeResidues(t, name+" growth", x, v, want)
	})
}
