package paillier

import (
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"testing"
)

// Differential suite for the square-modulus multiplier: split, multiply,
// square and join are checked against new(big.Int).Mul(a, b).Mod(·, B²), the
// formula the digit form replaced.

// sqModRoots are the roots the suite runs over: one word, widths that are not
// word-aligned, word-aligned widths with the top word full (so the cross sum
// h + x.lo·y.hi + x.hi·y.lo passes β^{2k} and Barrett's estimate falls short
// by more than two), and the roots the engine really uses — N in public mode,
// p and q under SecretOps.
func sqModRoots(rng *mrand.Rand) []*big.Int {
	roots := []*big.Int{big.NewInt(3), new(big.Int).SetUint64(1<<64 - 59), testKey.N, testKey.p, testKey.q}
	for _, w := range []int{bits.UintSize, 511, 1000, 1023, 1024, 2048} {
		r := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(w-1)))
		roots = append(roots, r.SetBit(r, w-1, 1).SetBit(r, 0, 1))
		full := new(big.Int).Lsh(one, uint(w)) // 2^w − small: every high bit set
		roots = append(roots, full.Sub(full, big.NewInt(1+2*rng.Int63n(1<<20))))
	}
	return roots
}

// sqModOperands are the corners for root b, the last one unreduced (≥ B²).
func sqModOperands(rng *mrand.Rand, b *big.Int) []*big.Int {
	b2 := new(big.Int).Mul(b, b)
	wide := new(big.Int).Lsh(b2, 70)
	return []*big.Int{
		new(big.Int), big.NewInt(1), new(big.Int).Sub(b, one), new(big.Int).Set(b),
		new(big.Int).Add(b, one), new(big.Int).Sub(b2, one), new(big.Int).Sub(b2, b),
		new(big.Int).Rand(rng, b2), new(big.Int).Rand(rng, b2),
		new(big.Int).Add(b2, one), wide.Add(wide, new(big.Int).Rand(rng, b2)),
	}
}

// checkSqMod runs a·b and a² through the digit form and compares the joined
// residues, and the digit ranges, with the reference.
func checkSqMod(t *testing.T, m *sqMod, s *sqScratch, a, b *big.Int) {
	t.Helper()
	var x, y, z sqPair
	m.split(&x, a, s)
	m.split(&y, b, s)
	for _, d := range []*big.Int{&x.lo, &x.hi, &y.lo, &y.hi} {
		if d.Sign() < 0 || d.Cmp(m.b) >= 0 {
			t.Fatalf("root %v: split digit %v outside [0, B)", m.b, d)
		}
	}
	if want := new(big.Int).Mod(a, m.b2); m.join(&x).Cmp(want) != 0 {
		t.Fatalf("root %v: join(split(%v)) = %v, want %v", m.b, a, m.join(&x), want)
	}
	m.mul(&z, &x, &y, s)
	if want := new(big.Int).Mul(a, b); m.join(&z).Cmp(want.Mod(want, m.b2)) != 0 {
		t.Fatalf("root %v: %v · %v = %v, want %v", m.b, a, b, m.join(&z), want)
	}
	m.sqr(&z, &x, s)
	if want := new(big.Int).Mul(a, a); m.join(&z).Cmp(want.Mod(want, m.b2)) != 0 {
		t.Fatalf("root %v: %v² = %v, want %v", m.b, a, m.join(&z), want)
	}
	m.mul(&x, &x, &y, s) // in place, as the chain does
	if m.join(&x).Cmp(new(big.Int).Mod(new(big.Int).Mul(a, b), m.b2)) != 0 {
		t.Fatalf("root %v: in-place %v · %v is not the reference residue", m.b, a, b)
	}
}

func TestSqModDifferential(t *testing.T) {
	rng := mrand.New(mrand.NewSource(47))
	for _, root := range sqModRoots(rng) {
		m := newSqMod(root)
		s := m.newScratch()
		ops := sqModOperands(rng, root)
		for _, a := range ops {
			for _, b := range ops {
				checkSqMod(t, m, s, a, b)
			}
		}
		// A chain: errors that cancel in one product do not survive hundreds.
		acc, f := &s.acc, new(sqPair)
		want := new(big.Int).Rand(rng, m.b2)
		m.split(acc, want, s)
		for i := 0; i < 300; i++ {
			fv := new(big.Int).Rand(rng, m.b2)
			m.split(f, fv, s)
			m.mul(acc, acc, f, s)
			m.sqr(acc, acc, s)
			want.Mul(want, fv).Mod(want, m.b2)
			want.Mul(want, want).Mod(want, m.b2)
		}
		if m.join(acc).Cmp(want) != 0 {
			t.Fatalf("root %v: a 600-operation chain left the reference", root)
		}
	}
}

// FuzzSqMod draws the root and both operands from fuzzed bytes, seeded with
// the differential suite's corners at the small roots.
func FuzzSqMod(f *testing.F) {
	rng := mrand.New(mrand.NewSource(53))
	for _, root := range sqModRoots(rng)[:7] {
		ops := sqModOperands(rng, root)
		for i := range ops {
			f.Add(root.Bytes(), ops[i].Bytes(), ops[(i+3)%len(ops)].Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, root, a, b []byte) {
		r := new(big.Int).SetBytes(root)
		if r.Cmp(one) <= 0 || len(root) > 600 || len(a) > 1300 || len(b) > 1300 {
			t.Skip()
		}
		m := newSqMod(r)
		checkSqMod(t, m, m.newScratch(), new(big.Int).SetBytes(a), new(big.Int).SetBytes(b))
	})
}

// TestSqModAllocsConstant: after its scratch, a run of multiplications
// allocates nothing.
func TestSqModAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool (math/big's squaring scratch) drops items at random under -race")
	}
	rng := mrand.New(mrand.NewSource(59))
	m := newSqMod(fakeKey2048(rng).N)
	s := m.newScratch()
	var f sqPair
	m.split(&s.acc, new(big.Int).Rand(rng, m.b2), s)
	m.split(&f, new(big.Int).Rand(rng, m.b2), s)
	if got := testing.AllocsPerRun(100, func() {
		m.mul(&s.acc, &s.acc, &f, s)
		m.sqr(&s.acc, &s.acc, s)
	}); got != 0 {
		t.Errorf("%.0f allocations per multiply and square, want 0", got)
	}
}

// BenchmarkMulModN2 is one multiplication (and one squaring) mod N² at the
// two production widths of N²: the Mul + QuoRem pair the engine used until
// PR 19, kept here as the baseline row, against the digit form.
func BenchmarkMulModN2(b *testing.B) {
	for _, n2bits := range []int{2048, 4096} {
		rng := mrand.New(mrand.NewSource(61))
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(n2bits/2-1)))
		n.SetBit(n, n2bits/2-1, 1).SetBit(n, 0, 1)
		m := newSqMod(n)
		s := m.newScratch()
		av, fv := new(big.Int).Rand(rng, m.b2), new(big.Int).Rand(rng, m.b2)
		var f sqPair
		m.split(&f, fv, s)
		b.Run(fmt.Sprintf("%d/quorem", n2bits), func(b *testing.B) {
			acc, prod, quo := new(big.Int).Set(av), new(big.Int), new(big.Int)
			for i := 0; i < b.N; i++ {
				prod.Mul(acc, fv)
				quo.QuoRem(prod, m.b2, acc)
			}
		})
		b.Run(fmt.Sprintf("%d/quorem-sqr", n2bits), func(b *testing.B) {
			acc, prod, quo := new(big.Int).Set(av), new(big.Int), new(big.Int)
			for i := 0; i < b.N; i++ {
				prod.Mul(acc, acc)
				quo.QuoRem(prod, m.b2, acc)
			}
		})
		b.Run(fmt.Sprintf("%d/digits", n2bits), func(b *testing.B) {
			m.split(&s.acc, av, s)
			for i := 0; i < b.N; i++ {
				m.mul(&s.acc, &s.acc, &f, s)
			}
		})
		b.Run(fmt.Sprintf("%d/digits-sqr", n2bits), func(b *testing.B) {
			m.split(&s.acc, av, s)
			for i := 0; i < b.N; i++ {
				m.sqr(&s.acc, &s.acc, s)
			}
		})
	}
}
