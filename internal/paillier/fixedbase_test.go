package paillier

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// TestFixedBaseMatchesExp cross-checks FixedBase.Exp against big.Int.Exp
// over random exponent widths, including every edge the comb digit loop has:
// zero, one, single-bit, window-aligned and max-width exponents.
func TestFixedBaseMatchesExp(t *testing.T) {
	k := testKey
	rng := mrand.New(mrand.NewSource(42))
	base := new(big.Int).Rand(rng, k.N2)
	fb := NewFixedBase(base, k.N, 400, 0)

	check := func(e *big.Int) {
		t.Helper()
		want := new(big.Int).Exp(base, e, k.N2)
		if got := fb.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("FixedBase.Exp(%v) (%d bits) diverges from big.Int.Exp", e, e.BitLen())
		}
	}

	for _, e := range []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(255),            // one full window at w=8
		big.NewInt(256),            // first bit of the second window
		new(big.Int).Lsh(one, 399), // top bit of the covered range
		new(big.Int).Sub(new(big.Int).Lsh(one, 400), one), // max-width all-ones
		new(big.Int).Lsh(one, 400),                        // α = 2^bits, the pool's inclusive upper draw
	} {
		check(e)
	}
	for i := 0; i < 50; i++ {
		bits := 1 + rng.Intn(400)
		e := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits)))
		check(e)
	}
	// Wider than the table: must fall back to big.Int.Exp, still exact.
	check(new(big.Int).Rand(rng, new(big.Int).Lsh(one, 700)))
}

// TestFixedBaseExpAlphaRange mirrors the pool's draw α ∈ [1, 2^bits].
func TestFixedBaseExpAlphaRange(t *testing.T) {
	k := testKey
	rng := mrand.New(mrand.NewSource(7))
	base := new(big.Int).Rand(rng, k.N2)
	const bits = 64
	fb := NewFixedBase(base, k.N, bits+1, 0)
	for i := 0; i < 40; i++ {
		alpha := new(big.Int).Rand(rng, new(big.Int).Lsh(one, bits))
		alpha.Add(alpha, one)
		want := new(big.Int).Exp(base, alpha, k.N2)
		if got := fb.Exp(alpha); got.Cmp(want) != 0 {
			t.Fatalf("α=%v diverges", alpha)
		}
	}
}

// TestFixedBaseWindowAdaptsToBudget: tighter budgets must select narrower
// windows, and the reported table size must respect the budget.
func TestFixedBaseWindowAdaptsToBudget(t *testing.T) {
	k := testKey
	base := big.NewInt(12345)
	wide := NewFixedBase(base, k.N, 400, 0)
	if wide.Window() < 6 {
		t.Fatalf("default budget picked window %d, want >= 6", wide.Window())
	}
	tight := NewFixedBase(base, k.N, 400, 128<<10)
	if tight.Window() >= wide.Window() {
		t.Fatalf("128 KiB budget picked window %d, not narrower than default %d", tight.Window(), wide.Window())
	}
	if tight.Bytes() > 128<<10 {
		t.Fatalf("table reports %d bytes, over the 128 KiB budget", tight.Bytes())
	}
	// Narrow table must still be exact.
	e := big.NewInt(0xdeadbeef)
	if tight.Exp(e).Cmp(new(big.Int).Exp(base, e, k.N2)) != 0 {
		t.Fatal("budget-narrowed table diverges from big.Int.Exp")
	}
}

// TestFixedBaseNegativeExpPanics pins the contract.
func TestFixedBaseNegativeExpPanics(t *testing.T) {
	k := testKey
	fb := NewFixedBase(big.NewInt(3), k.N, 16, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative exponent")
		}
	}()
	fb.Exp(big.NewInt(-1))
}

// FuzzFixedBaseExp fuzzes exponent bytes against big.Int.Exp.
func FuzzFixedBaseExp(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add(new(big.Int).Lsh(one, 200).Bytes())
	k := testKey
	base := new(big.Int).Mod(big.NewInt(987654321987654321), k.N2)
	fb := NewFixedBase(base, k.N, 256, 0)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64] // cap at 512 bits: covered + fallback ranges
		}
		e := new(big.Int).SetBytes(raw)
		want := new(big.Int).Exp(base, e, k.N2)
		if got := fb.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("FixedBase.Exp diverges for %d-bit exponent", e.BitLen())
		}
	})
}

func BenchmarkShortExpBlindingBigInt(b *testing.B) {
	k := testKey
	rng := mrand.New(mrand.NewSource(3))
	hn := new(big.Int).Rand(rng, k.N2)
	alpha := new(big.Int).Rand(rng, new(big.Int).Lsh(one, DefaultShortExpBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(big.Int).Exp(hn, alpha, k.N2)
	}
}

func BenchmarkShortExpBlindingFixedBase(b *testing.B) {
	k := testKey
	rng := mrand.New(mrand.NewSource(3))
	hn := new(big.Int).Rand(rng, k.N2)
	alpha := new(big.Int).Rand(rng, new(big.Int).Lsh(one, DefaultShortExpBits))
	fb := NewFixedBase(hn, k.N, DefaultShortExpBits+1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Exp(alpha)
	}
}
