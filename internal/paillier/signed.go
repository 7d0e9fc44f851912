package paillier

import (
	"fmt"
	"math/big"

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
	var c *big.Int
	if so := SecretOpsFor(pk); so != nil {
		c = so.ExpCRT(a.C, mag) // secret-key side: two half-width chains
	} else {
		c = new(big.Int).Exp(a.C, mag, pk.N2)
	}
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

// windowDigit extracts bits [off, off+w) of x as an integer.
func windowDigit(x *big.Int, off int, w uint) uint {
	var d uint
	for j := int(w) - 1; j >= 0; j-- {
		d = d<<1 | x.Bit(off+j)
	}
	return d
}

// MaxDotWindow bounds the Straus/cache window width: 2·(2^10−1) table entries
// per base is the widest layout the persistent table cache ever pays for.
const MaxDotWindow = 10

// DotTables holds per-base window tables for Straus multi-exponentiation
// over a fixed slice of ciphertext bases (the columns of a weight matrix,
// say). Build once with PrecomputeDot, evaluate with Dot or DotGroup for
// each exponent vector.
//
// When a SecretOps is registered for the key at build time, the tables are
// built modulo p² and q² instead of N² and every evaluation runs two
// half-width chains recombined once — the CRT split for decrypt-adjacent
// matmuls. The recombined result is bit-identical to the public-path one.
type DotTables struct {
	pk    *PublicKey
	w     uint
	n     int        // bases
	rows  int        // power rows built per half: 2n, or n for DotRow's one side each
	so    *SecretOps // non-nil selects the CRT dual-chain mode
	halfs []dotHalf  // one mod N², or two mod p² and q²
}

// dotHalf is the tables modulo one modulus: pow[2i+s][d] = cᵢ^{±d} mod m for
// d = 1..2^w−1 (index 0 unused), s = 1 holding the powers of cᵢ⁻¹. A nil row
// is a side DotRow did not need.
type dotHalf struct {
	m   *big.Int
	pow [][]*big.Int
}

// Window reports the table's Straus window width.
func (t *DotTables) Window() uint { return t.w }

// DotTableBytes estimates the memory of width-w tables over the given number
// of bases with both sides built (the CRT layout's two half-size residues
// cost the same as one full-size one).
func (pk *PublicKey) DotTableBytes(bases int, w uint) int64 {
	return 2 * int64(bases) * int64((1<<w)-1) * fixedBaseEntryBytes(pk.N2)
}

// Bytes estimates the tables' memory footprint.
func (t *DotTables) Bytes() int64 { return t.pk.DotTableBytes(t.rows, t.w) / 2 }

// batchInverse inverts every x mod m with Montgomery's trick — prefix
// products, one ModInverse, unwind — so a table build pays one inversion,
// not one per base. Panics like mustInverse if any x is not a unit.
func batchInverse(xs []*big.Int, m *big.Int) []*big.Int {
	inv := make([]*big.Int, len(xs))
	if len(xs) == 0 {
		return inv
	}
	acc := big.NewInt(1)
	for i, x := range xs {
		inv[i] = acc // product of xs[:i], until the unwind below
		acc = new(big.Int).Mul(acc, x)
		acc.Mod(acc, m)
	}
	acc = mustInverse(acc, m, "PrecomputeDot")
	for i := len(xs) - 1; i >= 0; i-- {
		inv[i] = new(big.Int).Mul(acc, inv[i])
		inv[i].Mod(inv[i], m)
		acc.Mul(acc, xs[i]).Mod(acc, m)
	}
	return inv
}

// buildHalf builds the width-w tables mod m. A nil es builds both sides of
// every base, the power rows in parallel; otherwise (DotRow, already inside a
// parallel cell) base i gets only the side es[i]'s sign selects, serially.
// The inversion runs on the calling goroutine either way, so a non-invertible
// base panics where the caller can recover.
func buildHalf(cs []*Ciphertext, es []SignedExp, w uint, m *big.Int) dotHalf {
	roots := make([]*big.Int, 2*len(cs)) // roots[2i+s] generates row pow[2i+s]
	var negIdx []int
	var negs []*big.Int
	for i, c := range cs {
		r := new(big.Int).Mod(c.C, m)
		if es == nil || !es[i].Neg {
			roots[2*i] = r
		}
		if es == nil || es[i].Neg {
			negIdx, negs = append(negIdx, i), append(negs, r)
		}
	}
	for t, inv := range batchInverse(negs, m) {
		roots[2*negIdx[t]+1] = inv
	}
	h := dotHalf{m: m, pow: make([][]*big.Int, len(roots))}
	fill := func(j int) {
		if roots[j] == nil {
			return
		}
		row := make([]*big.Int, 1<<w)
		row[1] = roots[j]
		for d := 2; d < len(row); d++ {
			row[d] = new(big.Int).Mul(row[d-1], row[1])
			row[d].Mod(row[d], m)
		}
		h.pow[j] = row
	}
	if es == nil {
		parallel.For(len(h.pow), fill)
	} else {
		for j := range h.pow {
			fill(j)
		}
	}
	return h
}

func (pk *PublicKey) precomputeDot(cs []*Ciphertext, es []SignedExp, w uint) *DotTables {
	if w < 1 || w > MaxDotWindow {
		panic(fmt.Sprintf("paillier: PrecomputeDot window %d out of range [1,%d]", w, MaxDotWindow))
	}
	t := &DotTables{pk: pk, w: w, n: len(cs), rows: 2 * len(cs), so: SecretOpsFor(pk)}
	if es != nil {
		t.rows = len(cs)
	}
	mods := []*big.Int{pk.N2}
	if t.so != nil {
		mods = []*big.Int{t.so.sk.p2, t.so.sk.q2}
	}
	for _, m := range mods {
		t.halfs = append(t.halfs, buildHalf(cs, es, w, m))
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
// residue of Π⁺·(Π⁻)⁻¹ mod N², whatever the window or mode.
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
	var s dotScratch
	x := t.halfs[0].chain(off, es, maxBits, t.w, &s)
	if t.so != nil {
		// CRT dual chain: the chain runs twice at half width (≈¼ the
		// per-multiplication cost each), recombined once.
		x = t.so.combine(x, t.halfs[1].chain(off, es, maxBits, t.w, &s))
	}
	return &Ciphertext{C: x}
}

// dotScratch is the product and quotient storage one evaluation reuses for
// every multiplication, so a chain allocates a constant number of limbs
// however long the exponents are.
type dotScratch struct{ prod, quo big.Int }

// mulMod sets acc = acc·f mod m without allocating.
func (s *dotScratch) mulMod(acc, f, m *big.Int) {
	s.prod.Mul(acc, f)
	s.quo.QuoRem(&s.prod, m, acc)
}

// chain runs the Straus interleaved chain over es against bases off… . The
// accumulator starts at the first non-zero digit, so leading all-zero window
// columns cost nothing; maxBits > 0 guarantees there is one.
func (h *dotHalf) chain(off int, es []SignedExp, maxBits int, width uint, s *dotScratch) *big.Int {
	w := int(width)
	var acc *big.Int
	for d := (maxBits+w-1)/w - 1; d >= 0; d-- {
		for k := 0; k < w && acc != nil; k++ {
			s.mulMod(acc, acc, h.m)
		}
		for i := range es {
			if es[i].IsZero() {
				continue
			}
			dig := windowDigit(es[i].Mag, d*w, width)
			if dig == 0 {
				continue
			}
			row := 2 * (off + i)
			if es[i].Neg {
				row++
			}
			if f := h.pow[row][dig]; acc == nil {
				acc = new(big.Int).Set(f)
			} else {
				s.mulMod(acc, f, h.m)
			}
		}
	}
	return acc
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
