package paillier

import (
	"fmt"
	"math/big"
	"math/bits"

	"blindfl/internal/parallel"
)

// Fast exponentiation engine. BlindFL's homomorphic matmuls spend nearly all
// their CPU in MulPlain = Exp(c, k mod N, N²). Two structural facts make the
// textbook call wasteful:
//
//  1. Scalars are signed fixed-point encodings whose magnitude needs only
//     ~F+log₂|v| bits (~45 for the default codec), but the ring image of a
//     negative value is N−|k| — a full-width exponent. MulPlainSigned
//     exponentiates by the small magnitude and inverts once mod N², turning
//     half the workload from 2048-bit exponentiations into ~45-bit ones.
//  2. Every matmul output cell is a dot product Π cᵢ^{kᵢ}. Exponentiating
//     each factor separately repeats the squaring chain per base; DotRow uses
//     Straus' interleaved multi-exponentiation (a.k.a. Shamir's trick) with
//     per-base window tables of the base's powers and of its inverse's, so
//     one squaring chain with one accumulator serves the whole row whatever
//     the exponents' signs, and inversion happens once per table build (all
//     bases together, by Montgomery's trick), never per output cell.
//
// DotTables additionally lets callers reuse the window tables when the same
// bases are exponentiated by many different scalar vectors (each batch row of
// a dense matmul hits the same weight column), amortizing table construction.

// SignedExp is a scalar exponent in signed-magnitude form: the represented
// value is −Mag when Neg, else Mag. A nil or zero Mag means zero (Neg is
// ignored). Mag must be non-negative.
type SignedExp struct {
	Mag *big.Int
	Neg bool
}

// IsZero reports whether the exponent is zero.
func (e SignedExp) IsZero() bool { return e.Mag == nil || e.Mag.Sign() == 0 }

// mustInverse inverts x mod m, panicking with a clear message when x is not
// invertible. A ciphertext that shares a factor with N² is either corrupted
// or reveals a factor of N; continuing with a nil big.Int would surface much
// later as an opaque nil dereference, so fail loudly at the source instead.
func mustInverse(x, m *big.Int, op string) *big.Int {
	inv := new(big.Int).ModInverse(x, m)
	if inv == nil {
		panic(fmt.Sprintf("paillier: %s: ciphertext not invertible mod N² (corrupted ciphertext or wrong key)", op))
	}
	return inv
}

// MulPlainSigned returns ⟦±mag·a⟧ (negated when neg): the signed fast path of
// MulPlain. It exponentiates by the small magnitude and inverts once mod N²
// instead of exponentiating by the full-width ring image N−mag. The returned
// ciphertext decrypts identically to MulPlain(a, ±mag) (the group elements
// differ, the plaintexts agree). Panics like Neg if a is not invertible and
// the scalar is negative.
func (pk *PublicKey) MulPlainSigned(a *Ciphertext, mag *big.Int, neg bool) *Ciphertext {
	if mag == nil || mag.Sign() == 0 {
		return &Ciphertext{C: big.NewInt(1)}
	}
	if mag.Sign() < 0 {
		panic("paillier: MulPlainSigned magnitude must be non-negative")
	}
	if a == nil || a.C == nil {
		panic("paillier: MulPlainSigned on corrupted ciphertext (nil value)")
	}
	c := new(big.Int).Exp(a.C, mag, pk.N2)
	if neg {
		c = mustInverse(c, pk.N2, "MulPlainSigned")
	}
	return &Ciphertext{C: c}
}

// DotWindow picks a Straus window width for exponents of the given bit
// length. reuse is how many exponent vectors will be evaluated against the
// same tables (PrecomputeDot callers); higher reuse amortizes the per-base
// table cost (2^w−2 multiplications) and favors a wider window.
func DotWindow(bits, reuse int) uint {
	var w uint
	switch {
	case bits <= 4:
		w = 1
	case bits <= 16:
		w = 2
	case bits <= 128:
		w = 3
	case bits <= 512:
		w = 4
	default:
		w = 5
	}
	if reuse >= 8 && bits > 16 {
		w++ // table cost amortized: trade table size for fewer window digits
	}
	if w > 6 {
		w = 6
	}
	return w
}

// windowDigit extracts bits [off, off+w) of |x| as an integer, w ≤ MaxDotWindow:
// at most two words of x, shifted and masked.
func windowDigit(x *big.Int, off int, w uint) uint {
	ws := x.Bits()
	i, sh := off/bits.UintSize, uint(off%bits.UintSize)
	if i >= len(ws) {
		return 0
	}
	d := uint(ws[i]) >> sh
	if sh+w > bits.UintSize && i+1 < len(ws) {
		d |= uint(ws[i+1]) << (bits.UintSize - sh)
	}
	return d & (1<<w - 1)
}

// MaxDotWindow bounds the Straus/cache window width: 2·(2^10−1) table entries
// per base is the widest layout the persistent table cache ever pays for.
const MaxDotWindow = 10

// DotTables holds per-base window tables for Straus multi-exponentiation
// over a fixed slice of ciphertext bases (the columns of a weight matrix,
// say). Build once with PrecomputeDot, evaluate with Dot or DotGroup for
// each exponent vector.
type DotTables struct {
	w uint
	n int // bases
	m *sqMod
	// pow holds the tables mod N² as base-N digit pairs (sqmod.go):
	// pow[2i+s][d−1] = cᵢ^{±d} mod N² for d = 1..2^w−1, s = 1 holding the
	// powers of cᵢ⁻¹. A nil row is a side DotRow did not need.
	pow [][]sqPair
}

// Window reports the table's Straus window width.
func (t *DotTables) Window() uint { return t.w }

// DotTableBytes is the memory of width-w tables over the given number of bases
// with both sides built: one digit pair per power mod N².
func (pk *PublicKey) DotTableBytes(bases int, w uint) int64 {
	return 2 * int64(bases) * int64((1<<w)-1) * pairBytes(pk.N)
}

// Bytes is the tables' memory footprint: the digit pairs stored.
func (t *DotTables) Bytes() int64 {
	var n int64
	for _, row := range t.pow {
		n += int64(len(row)) * pairBytes(t.m.b)
	}
	return n
}

// batchInverse replaces every x by x⁻¹ mod B² with Montgomery's trick — prefix
// products, one ModInverse, unwind — so a table build pays one inversion, not
// one per base. Panics like mustInverse if any x is not a unit.
func (m *sqMod) batchInverse(xs []*sqPair, s *sqScratch) {
	if len(xs) == 0 {
		return
	}
	pre, acc := m.newRow(len(xs)), &s.acc // pre[i] = product of xs[:i], until the unwind below
	acc.lo.SetUint64(1)
	acc.hi.SetUint64(0)
	for i, x := range xs {
		pre[i].set(acc)
		m.mul(acc, acc, x, s)
	}
	m.split(acc, mustInverse(m.join(acc), m.b2, "PrecomputeDot"), s)
	for i := len(xs) - 1; i >= 0; i-- {
		m.mul(&pre[i], acc, &pre[i], s)
		m.mul(acc, acc, xs[i], s)
		xs[i].set(&pre[i])
	}
}

// precomputeDot builds the width-w tables mod N². A nil es builds both sides
// of every base, the power rows in parallel; otherwise (DotRow, already inside
// a parallel cell) base i gets only the side es[i]'s sign selects, serially.
// The inversion runs on the calling goroutine either way, so a non-invertible
// base panics where the caller can recover.
func (pk *PublicKey) precomputeDot(cs []*Ciphertext, es []SignedExp, w uint) *DotTables {
	if w < 1 || w > MaxDotWindow {
		panic(fmt.Sprintf("paillier: PrecomputeDot window %d out of range [1,%d]", w, MaxDotWindow))
	}
	m := newSqMod(pk.N)
	t := &DotTables{w: w, n: len(cs), m: m, pow: make([][]sqPair, 2*len(cs))}
	s := m.newScratch()
	var negs []*sqPair
	for i, c := range cs {
		// Row 2i+s opens with its generator: cᵢ, which on the inverse side
		// the batch inversion below turns into cᵢ⁻¹.
		m.split(&s.acc, c.C, s)
		for side := 0; side < 2; side++ {
			if es != nil && es[i].Neg != (side == 1) {
				continue
			}
			row := m.newRow(1<<w - 1)
			row[0].set(&s.acc)
			t.pow[2*i+side] = row
			if side == 1 {
				negs = append(negs, &row[0])
			}
		}
	}
	m.batchInverse(negs, s)
	fill := func(row []sqPair, s *sqScratch) {
		for d := 1; d < len(row); d++ {
			m.mul(&row[d], &row[d-1], &row[0], s)
		}
	}
	if es == nil {
		parallel.For(len(t.pow), func(j int) { fill(t.pow[j], m.newScratch()) })
	} else {
		for _, row := range t.pow {
			fill(row, s)
		}
	}
	return t
}

// PrecomputeDot builds Straus window tables of width w for the given bases:
// 2·len(cs)·(2^w−1) residues mod N² (DotTableBytes). Callers choose w via
// DotWindow-style reasoning: wider windows pay off when the tables are reused
// across many Dot calls (the hetensor table cache goes up to MaxDotWindow).
// Panics if a base is not invertible mod N².
func (pk *PublicKey) PrecomputeDot(cs []*Ciphertext, w uint) *DotTables {
	return pk.precomputeDot(cs, nil, w)
}

// Bases reports how many bases the tables cover.
func (t *DotTables) Bases() int { return t.n }

// Dot computes ⟦Σ kᵢ·mᵢ⟧ = Π cᵢ^{kᵢ} over all the precomputed bases; es
// must align with the bases passed to PrecomputeDot.
func (t *DotTables) Dot(es []SignedExp) *Ciphertext {
	if len(es) != t.n {
		panic(fmt.Sprintf("paillier: Dot over %d exponents for %d bases", len(es), t.n))
	}
	return t.DotGroup(0, es)
}

// DotGroup computes Π cᵢ^{kᵢ} over the g-th run of len(es) bases — tables
// built over several equally long base vectors laid end to end evaluate each
// of them separately. One shared squaring chain, one accumulator: a negative
// exponent multiplies in the inverse base's power. Zero exponents contribute
// nothing (so sparse exponent vectors are cheap). The result is the canonical
// residue of Π⁺·(Π⁻)⁻¹ mod N², whatever the window.
func (t *DotTables) DotGroup(g int, es []SignedExp) *Ciphertext {
	off := g * len(es)
	if g < 0 || off+len(es) > t.n {
		panic(fmt.Sprintf("paillier: DotGroup %d of %d exponents over %d bases", g, len(es), t.n))
	}
	maxBits := 0
	for i := range es {
		if es[i].IsZero() {
			continue
		}
		if es[i].Mag.Sign() < 0 {
			panic("paillier: Dot exponent magnitude must be non-negative")
		}
		if bl := es[i].Mag.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return &Ciphertext{C: big.NewInt(1)}
	}
	return &Ciphertext{C: t.chain(off, es, maxBits)}
}

// chain runs the Straus interleaved chain over es against bases off… on one
// scratch, so it allocates a constant number of words however long the
// exponents are, and joins the digits once at the end. The accumulator starts
// at the first non-zero digit, so leading all-zero window columns cost
// nothing; maxBits > 0 guarantees there is one.
func (t *DotTables) chain(off int, es []SignedExp, maxBits int) *big.Int {
	w := int(t.w)
	s := t.m.newScratch()
	var acc *sqPair
	for d := (maxBits+w-1)/w - 1; d >= 0; d-- {
		for k := 0; k < w && acc != nil; k++ {
			t.m.sqr(acc, acc, s)
		}
		for i := range es {
			if es[i].IsZero() {
				continue
			}
			dig := windowDigit(es[i].Mag, d*w, t.w)
			if dig == 0 {
				continue
			}
			row := 2 * (off + i)
			if es[i].Neg {
				row++
			}
			if f := &t.pow[row][dig-1]; acc == nil {
				acc = &s.acc
				acc.set(f)
			} else {
				t.m.mul(acc, acc, f, s)
			}
		}
	}
	return t.m.join(acc)
}

// DotRow computes the encrypted dot product ⟦Σ kᵢ·mᵢ⟧ = Π cᵢ^{kᵢ} for one
// row of ciphertexts and signed scalar exponents: single-use tables sized to
// the largest exponent magnitude, holding for each base only the side its
// exponent's sign selects (so the negative bases share one inversion and an
// all-positive row pays none), evaluated by the same chain as DotTables.Dot.
// It decrypts identically to the textbook loop Σ AddCipher(MulPlain(cᵢ, kᵢ))
// with signed kᵢ. Zero exponents skip their base entirely.
func (pk *PublicKey) DotRow(cs []*Ciphertext, es []SignedExp) *Ciphertext {
	if len(cs) != len(es) {
		panic(fmt.Sprintf("paillier: DotRow over %d ciphertexts, %d exponents", len(cs), len(es)))
	}
	maxBits, nz := 0, 0
	for i := range es {
		if es[i].IsZero() {
			continue
		}
		nz++
		if bl := es[i].Mag.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if nz == 0 {
		return &Ciphertext{C: big.NewInt(1)}
	}
	if nz == 1 {
		for i := range es {
			if !es[i].IsZero() {
				return pk.MulPlainSigned(cs[i], es[i].Mag, es[i].Neg)
			}
		}
	}
	// Gather the non-zero factors so tables are only built for live bases.
	liveC := make([]*Ciphertext, 0, nz)
	liveE := make([]SignedExp, 0, nz)
	for i := range es {
		if !es[i].IsZero() {
			liveC = append(liveC, cs[i])
			liveE = append(liveE, es[i])
		}
	}
	return pk.precomputeDot(liveC, liveE, DotWindow(maxBits, 1)).Dot(liveE)
}

// PackLanes returns ⟦Σ mₗ·2^(l·w)⟧ = Π cs[l]^(2^(l·w)) mod N²: one value per
// ciphertext packed homomorphically into w-bit lanes of one, by Horner's rule
// from the top lane down — (len(cs)−1)·w squarings on one scratch. cs must
// not be empty.
func (pk *PublicKey) PackLanes(cs []*Ciphertext, w uint) *Ciphertext {
	m := newSqMod(pk.N)
	s := m.newScratch()
	var lane sqPair
	acc := &s.acc
	m.split(acc, cs[len(cs)-1].C, s)
	for l := len(cs) - 2; l >= 0; l-- {
		for k := uint(0); k < w; k++ {
			m.sqr(acc, acc, s)
		}
		m.split(&lane, cs[l].C, s)
		m.mul(acc, acc, &lane, s)
	}
	return &Ciphertext{C: m.join(acc)}
}

// LanePowers returns c^(2^(l·w)) mod N² for l = 0..n−1: the base lane l of
// a packed exponent Σ xₗ·2^(l·w) multiplies once the pack is split into its
// lanes, Π_l (c^(2^(l·w)))^(xₗ) being the same group element as c^(Σ xₗ·2^(l·w)).
// (n−1)·w squarings on one scratch, as PackLanes pays; n must be positive.
func (pk *PublicKey) LanePowers(c *Ciphertext, w uint, n int) []*Ciphertext {
	m := newSqMod(pk.N)
	s := m.newScratch()
	acc := &s.acc
	m.split(acc, c.C, s)
	out := make([]*Ciphertext, n)
	for l := range out {
		for k := uint(0); l > 0 && k < w; k++ {
			m.sqr(acc, acc, s)
		}
		out[l] = &Ciphertext{C: m.join(acc)}
	}
	return out
}

// AllUnits reports whether every ciphertext is invertible mod N² — shares no
// factor with N — at the price of one GCD however many there are: a factor of
// N in any cell is a factor of their product, which is folded mod N by
// Barrett steps. Nil-valued or negative ciphertexts are the caller's to
// reject first.
func (pk *PublicKey) AllUnits(cs []*Ciphertext) bool {
	m := newSqMod(pk.N)
	s := m.newScratch()
	prod := big.NewInt(1)
	for _, c := range cs {
		m.split(&s.acc, c.C, s) // only the low digit, c mod N, is used
		s.t.Mul(prod, &s.acc.lo)
		m.reduce(prod, &s.t, s)
	}
	return prod.GCD(nil, nil, prod, pk.N).Cmp(one) == 0
}
