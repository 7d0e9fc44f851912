package paillier

import (
	"fmt"
	"math/big"
)

// Fixed-base comb exponentiation (Lim–Lee, CRYPTO '94 family). When the same
// base is exponentiated over and over — the pool's blinding base hⁿ, a
// re-randomization generator — the squaring chain of a generic square-and-
// multiply is pure waste: every power of the base is known ahead of time.
// FixedBase precomputes base^(d·2^(i·w)) for every window position i and
// digit d, after which base^e costs only one multiplication per non-zero
// w-bit digit of e (~bits/w multiplications, no squarings at all). For the
// pool's 400-bit short exponents at w = 8 that is ~50 multiplications versus
// the ~500 squaring-equivalents of big.Int.Exp — a 5–8× refill speedup on
// top of the short-exponent win.
//
// The table is sized adaptively: the widest w whose table fits the byte
// budget, so callers trade memory for speed with one knob.

// DefaultFixedBaseBudget caps one FixedBase table at 16 MiB — enough for
// w = 8 over a 400-bit exponent at a 2048-bit N (~7.0 MiB of digit pairs)
// while keeping a handful of tables affordable in one process.
const DefaultFixedBaseBudget = 16 << 20

// FixedBase holds comb tables for one constant base modulo one square B², as
// base-B digit pairs (sqmod.go). It is immutable after construction and safe
// for concurrent Exp calls.
type FixedBase struct {
	m    *sqMod
	w    uint
	bits int        // max exponent bit length the table covers
	tabs [][]sqPair // tabs[i][d−1] = base^(d·2^(i·w)) mod B², d = 1..2^w−1
}

// fixedBaseWindow picks the widest window whose comb table for maxBits-bit
// exponents fits the byte budget, clamped to [1, 8]. Wider windows shrink
// the per-Exp multiplication count (~maxBits/w) but grow the table
// exponentially (⌈maxBits/w⌉·(2^w−1) digit pairs).
func fixedBaseWindow(maxBits int, root *big.Int, budget int64) uint {
	if budget <= 0 {
		budget = DefaultFixedBaseBudget
	}
	eb := pairBytes(root)
	for w := uint(8); w > 1; w-- {
		wins := int64((maxBits + int(w) - 1) / int(w))
		if wins*int64((1<<w)-1)*eb <= budget {
			return w
		}
	}
	return 1
}

// NewFixedBase precomputes comb tables for base modulo root² — every modulus
// here is a square, and the multiplier works from its root — covering
// exponents up to maxBits bits. budget caps the table memory in bytes (<= 0
// selects DefaultFixedBaseBudget); the window width adapts to it. Construction
// costs ~maxBits squarings plus ⌈maxBits/w⌉·(2^w−2) multiplications — a
// one-time cost amortized across every later Exp.
func NewFixedBase(base, root *big.Int, maxBits int, budget int64) *FixedBase {
	if maxBits < 1 {
		panic(fmt.Sprintf("paillier: NewFixedBase maxBits %d < 1", maxBits))
	}
	if root.Cmp(one) <= 0 {
		panic("paillier: NewFixedBase modulus root must exceed 1")
	}
	w := fixedBaseWindow(maxBits, root, budget)
	wins := (maxBits + int(w) - 1) / int(w)
	m := newSqMod(root)
	f := &FixedBase{m: m, w: w, bits: maxBits, tabs: make([][]sqPair, wins)}
	s := m.newScratch()
	cur := &s.acc // base^(2^(i·w)), advanced per window
	m.split(cur, base, s)
	for i := range f.tabs {
		tab := m.newRow(1<<w - 1)
		tab[0].set(cur)
		for d := 1; d < len(tab); d++ {
			m.mul(&tab[d], &tab[d-1], &tab[0], s)
		}
		f.tabs[i] = tab
		if i+1 < wins {
			for k := uint(0); k < w; k++ {
				m.sqr(cur, cur, s)
			}
		}
	}
	return f
}

// Window reports the comb window width the byte budget selected.
func (f *FixedBase) Window() uint { return f.w }

// Bits reports the largest exponent bit length the table covers.
func (f *FixedBase) Bits() int { return f.bits }

// Bytes is the table's memory footprint: the digit pairs stored.
func (f *FixedBase) Bytes() int64 {
	return int64(len(f.tabs)) * int64(len(f.tabs[0])) * pairBytes(f.m.b)
}

// Exp returns base^e mod B² using the comb tables: one table lookup and
// multiplication per non-zero w-bit digit of e, no squarings, the digits
// joined once at the end. e must be non-negative; exponents wider than the
// table's coverage fall back to big.Int.Exp so the result is always exact.
func (f *FixedBase) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 {
		panic("paillier: FixedBase.Exp negative exponent")
	}
	if e.BitLen() > f.bits {
		return new(big.Int).Exp(f.m.join(&f.tabs[0][0]), e, f.m.b2)
	}
	s := f.m.newScratch()
	var acc *sqPair
	for i := range f.tabs {
		d := windowDigit(e, i*int(f.w), f.w)
		if d == 0 {
			continue
		}
		if t := &f.tabs[i][d-1]; acc == nil {
			acc = &s.acc
			acc.set(t)
		} else {
			f.m.mul(acc, acc, t, s)
		}
	}
	if acc == nil {
		return big.NewInt(1) // e == 0
	}
	return f.m.join(acc)
}
