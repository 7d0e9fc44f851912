package paillier

import (
	"math/big"
	"math/bits"
	"unsafe"
)

// Square-modulus multiplier. Every modulus this engine reduces by — N², and
// p², q² under SecretOps — is a perfect square whose root B the caller holds.
// A residue mod B² is held as two base-B digits, x = lo + hi·B, and a product
// needs only
//
//	x.lo·y.lo               = l + h·B     (one Barrett step mod B: quotient and remainder)
//	h + x.lo·y.hi + x.hi·y.lo   mod B     (one more; everything ·B² vanishes)
//
// seven half-width big.Int.Mul calls (assembly-backed) on reused scratch and
// no long division — the QuoRem by N² it replaces cost four times the Mul it
// followed. A squaring is six. Values are split once on entry and joined once
// on exit, so everything the engine emits is the canonical residue, bit for
// bit what Mul + Mod returns (TestSqModDifferential, FuzzSqMod).

// sqPair is a residue mod B² as base-B digits: the value is lo + hi·B with
// both digits in [0, B). Held by pointer or slice index, never copied.
type sqPair struct{ lo, hi big.Int }

// set copies x's digits into z's own storage.
func (z *sqPair) set(x *sqPair) {
	z.lo.Set(&x.lo)
	z.hi.Set(&x.hi)
}

// sqMod multiplies modulo B² for one root B. Immutable after newSqMod and
// safe for concurrent use; the mutable state of a run of multiplications is
// the caller's sqScratch.
type sqMod struct {
	b  *big.Int // the root B > 1
	b2 *big.Int // B², for the one inversion per table build and for exponents past a comb's coverage
	mu *big.Int // Barrett's μ = ⌊β^{2k}/B⌋, β the word base
	k  int      // words of B
}

// newSqMod builds the reducer for root b: one division for μ.
func newSqMod(b *big.Int) *sqMod {
	k := len(b.Bits())
	mu := new(big.Int).Lsh(one, uint(2*k*bits.UintSize))
	return &sqMod{b: b, b2: new(big.Int).Mul(b, b), mu: mu.Quo(mu, b), k: k}
}

// pairBytes is the memory one stored digit pair costs: two big.Int headers
// and two k-word digits (table rows carve exactly that, see newRow).
func pairBytes(root *big.Int) int64 {
	return int64(unsafe.Sizeof(sqPair{})) + 2*int64(len(root.Bits()))*(bits.UintSize/8)
}

// sqScratch is the storage one run of multiplications reuses: an accumulator
// and the intermediate products, carved from one allocation and wide enough
// that no operation regrows them.
type sqScratch struct {
	acc    sqPair  // the run's accumulator
	t, u   big.Int // x.lo·y.lo and the cross sum h + x.lo·y.hi + x.hi·y.lo
	qm, qb big.Int // Barrett's two products
	q, hi  big.Int // views into qm and the reduced value, never owners of storage
}

func (m *sqMod) newScratch() *sqScratch {
	// The cross sum is under 2B² + B: 2k+1 words, and math/big asks for one
	// spare word on an addition. Its high part ⌊·/β^{k−1}⌋ is k+2 words, q̂
	// two more than μ has beyond k+1, and one spare for q̂'s correction.
	s, k, mu := new(sqScratch), m.k, len(m.mu.Bits())
	owners := [...]*big.Int{&s.acc.lo, &s.acc.hi, &s.t, &s.u, &s.qm, &s.qb}
	sizes := [...]int{k, k, 2 * k, 2*k + 2, k + 3 + mu, 2*k + 3}
	total := 0
	for _, n := range sizes {
		total += n
	}
	words := make([]big.Word, total)
	for i, z := range owners {
		z.SetBits(words[:0:sizes[i]])
		words = words[sizes[i]:]
	}
	return s
}

// newRow returns n zero pairs whose digits are carved from one slab of
// exactly k words each: a stored digit is below B, so it never outgrows them.
func (m *sqMod) newRow(n int) []sqPair {
	row := make([]sqPair, n)
	words := make([]big.Word, 2*n*m.k)
	for i := range row {
		row[i].lo.SetBits(words[:0:m.k])
		row[i].hi.SetBits(words[m.k : m.k : 2*m.k])
		words = words[2*m.k:]
	}
	return row
}

// reduce sets r = t mod B and leaves ⌊t/B⌋ in s.q (a view into s.qm, valid
// until the next reduce). t must be non-negative and below β^{2k+1} — every
// product and cross sum here is — and is not modified. Barrett:
// q̂ = ⌊⌊t/β^{k−1}⌋·μ / β^{k+1}⌋ never exceeds the quotient and falls short of
// it by at most t/β^{2k} + 2, which the correction loop makes up. The remainder
// is copied out of the scratch, so r never holds more than k words.
func (m *sqMod) reduce(r, t *big.Int, s *sqScratch) {
	s.q.SetBits(nil)
	tw := t.Bits()
	if len(tw) < m.k {
		r.Set(t)
		return
	}
	s.hi.SetBits(tw[m.k-1:])
	s.qm.Mul(&s.hi, m.mu)
	if qw := s.qm.Bits(); len(qw) > m.k+1 {
		s.q.SetBits(qw[m.k+1:])
	}
	s.qb.Mul(&s.q, m.b)
	s.qb.Sub(t, &s.qb)
	for s.qb.Cmp(m.b) >= 0 {
		s.qb.Sub(&s.qb, m.b)
		s.q.Add(&s.q, one)
	}
	r.Set(&s.qb)
}

// fold finishes a product: z.lo = s.t mod B, and z.hi = the cross sum s.u
// plus s.t's carry ⌊s.t/B⌋, mod B.
func (m *sqMod) fold(z *sqPair, s *sqScratch) {
	m.reduce(&z.lo, &s.t, s)
	s.u.Add(&s.u, &s.q)
	m.reduce(&z.hi, &s.u, s)
}

// mul sets z = x·y mod B²; z may be x or y.
func (m *sqMod) mul(z, x, y *sqPair, s *sqScratch) {
	s.u.Mul(&x.lo, &y.hi)
	s.t.Mul(&x.hi, &y.lo)
	s.u.Add(&s.u, &s.t)
	s.t.Mul(&x.lo, &y.lo)
	m.fold(z, s)
}

// sqr sets z = x² mod B²; z may be x.
func (m *sqMod) sqr(z, x *sqPair, s *sqScratch) {
	s.u.Mul(&x.lo, &x.hi)
	s.u.Lsh(&s.u, 1)
	s.t.Mul(&x.lo, &x.lo)
	m.fold(z, s)
}

// split sets z to the digits of x mod B² for any x ≥ 0 — by Barrett steps,
// not a division, unless x is wider than a product.
func (m *sqMod) split(z *sqPair, x *big.Int, s *sqScratch) {
	if len(x.Bits()) > 2*m.k {
		x = new(big.Int).Mod(x, m.b2)
	}
	m.reduce(&z.lo, x, s)
	if s.q.Cmp(m.b) < 0 {
		z.hi.Set(&s.q)
		return
	}
	// x ≥ B²: the quotient is itself below β^{k+1} and reduces once more.
	s.u.Set(&s.q)
	m.reduce(&z.hi, &s.u, s)
}

// join returns the canonical residue lo + hi·B as a new integer.
func (m *sqMod) join(x *sqPair) *big.Int {
	z := new(big.Int).Mul(&x.hi, m.b)
	return z.Add(z, &x.lo)
}
