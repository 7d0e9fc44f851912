package hetensor

import (
	"fmt"
	"math/big"
	"math/rand"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// Serving kernels. Online inference inverts the training layout: instead of
// one party's large mini-batch against a packed weight matrix, a serve batch
// is up to K *different users'* requests packed into the exponent. Each lane
// group of requests becomes one signed packed exponent per feature, so the
// homomorphic product ⟦(X·V)ᵀ⟧ costs one dot-product grid of v.Cols×⌈batch/K⌉
// ciphertexts — the request batcher fills lanes across concurrent queries.
// The base set is the *unpacked* ⟦V⟧ column, so a long-lived serve
// session's queries warm and reuse one persistent dot-table cache entry per
// weight matrix.
//
// A packed exponent is K·W bits long (≈1 984 at 2048-bit keys), and its
// squaring chain was most of a served batch. The weights a session serves
// never change, so their cached entry keeps comb rows at the lane stride —
// every base c raised to 2^(r·W), squared once per session — and a full
// lane group becomes one chain over each lane's own ≈42-bit value:
// Π_{k,r} c_{k,r}^(x_{r,k}) is the group element Π_k c_k^(P_k), the same
// residue. Rows are built only for lanes a batch has filled, as many as the
// table-cache budget affords (combTables).
//
// Unlike training's float shares, serve shares stay exact integers at scale 2
// until the end: masks are drawn as integer lane values and cancel exactly in
// ℤ when the two parties' shares are summed, so the reconstructed activation
// is a deterministic function of the weights and the request — independent of
// mask draws, batch composition, lane position and the kernel family (engine
// or textbook reference, SetTextbook). That is what lets a served prediction
// be re-verified bit-for-bit against a plaintext forward pass (the integrity
// spot check).

// ServeMaskBits is the bit magnitude of serve-time integer lane masks:
// 2·Codec.F bits cover a scale-2 product lane plus the usual ~2^20
// statistical blind on top, comfortably inside the PackHeadroom margin.
// ServeMask draws exactly this many bits.
const ServeMaskBits = 100

// Lanes returns the number of packing lanes K one ciphertext holds under the
// key's default layout — the serve batcher's natural batch quantum.
func Lanes(pk *paillier.PublicKey) int { return packingFor(pk).K }

// BigMatrix is a rows×cols matrix of exact signed integers at a fixed-point
// scale: the integer-domain share type of the serving protocol, wide enough
// for masked scale-2 values (~2^100) that do not fit tensor.IntMatrix's int
// cells. Fields are exported for gob.
type BigMatrix struct {
	Rows, Cols int
	Scale      uint
	V          []*big.Int
}

// NewBigMatrix allocates a zero matrix.
func NewBigMatrix(rows, cols int, scale uint) *BigMatrix {
	m := &BigMatrix{Rows: rows, Cols: cols, Scale: scale, V: make([]*big.Int, rows*cols)}
	for i := range m.V {
		m.V[i] = new(big.Int)
	}
	return m
}

// At returns the entry at (i, j).
func (m *BigMatrix) At(i, j int) *big.Int { return m.V[i*m.Cols+j] }

// AddInPlace adds o entrywise into m. Shapes and scales must match.
func (m *BigMatrix) AddInPlace(o *BigMatrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.Scale != o.Scale {
		panic(fmt.Sprintf("hetensor: BigMatrix add mismatch %d×%d@%d vs %d×%d@%d",
			m.Rows, m.Cols, m.Scale, o.Rows, o.Cols, o.Scale))
	}
	parallel.For(m.Rows, func(i int) {
		row := m.V[i*m.Cols : (i+1)*m.Cols]
		orow := o.V[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j].Add(row[j], orow[j])
		}
	})
}

// DecodeTranspose decodes mᵀ to float64 at m's scale: the serve matrices are
// out×batch (transposed by the lane layout), while heads consume batch×out.
func (m *BigMatrix) DecodeTranspose() *tensor.Dense {
	out := tensor.NewDense(m.Cols, m.Rows)
	parallel.For(m.Rows, func(i int) {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = Codec.Decode(m.V[i*m.Cols+j], m.Scale)
		}
	})
	return out
}

// ServeProducts computes ⟦(X·V)ᵀ⟧ from plaintext requests X (batch×in) and
// the unpacked encrypted weight piece V (in×out): the serve-side homomorphic
// half. Requests are packed K-per-exponent — lane group g of the result's
// rows holds requests g·K… — so the grid is v.Cols×⌈batch/K⌉ dot products
// instead of batch×v.Cols. The result is a packed out×batch matrix at scale
// V.Scale+1 whose lane l of group g is request (g·K+l)'s product.
//
// Each product Π_k c_k^(P_k), P_k = Σ_l x_{gK+l,k}·2^(l·W), is evaluated as
// Π_{k,r} c_{k,r}^(e_{k,r}) over R comb rows c_{k,r} = c_k^(2^(r·W)): row r < R−1
// carries lane r's own ≈42-bit value, the top row the pack of lanes R−1….
// The same group element, so the same residue, for every R; R = 1 is the
// packed exponent against c_k itself. R comes from the cache (combTables),
// and is 1 whenever the tables are per call.
//
// The kernel always runs the signed-exponent engine: packed exponents are the
// mechanism, not an optimization, so SetTextbook does not apply.
func ServeProducts(x *tensor.Dense, v *Matrix) *Matrix {
	if x.Cols != v.Rows || v.GroupsPerRow() != v.Cols {
		panic(fmt.Sprintf("hetensor: ServeProducts of %d×%d requests · %d×%d weights in %d ciphertexts a row",
			x.Rows, x.Cols, v.Rows, v.Cols, v.GroupsPerRow()))
	}
	if x.Rows == 0 {
		panic("hetensor: ServeProducts of an empty batch")
	}
	lc := packingFor(v.PK)
	out := NewPackedMatrix(v.PK, v.Cols, x.Rows, x.Rows, v.Scale+1)
	groups, inner := out.GroupsPerRow(), x.Cols
	lanes := make([][][]*big.Int, groups) // lanes[g][k][l]: request gK+l's feature k at scale 1
	laneBits := 0
	for g := range lanes {
		lanes[g] = make([][]*big.Int, inner)
		for k := range lanes[g] {
			ls := make([]*big.Int, out.laneCount(g))
			for l := range ls {
				ls[l] = Codec.Encode(x.At(g*lc.K+l, k), 1)
				laneBits = max(laneBits, ls[l].BitLen())
			}
			lanes[g][k] = ls
		}
	}
	if laneBits == 0 {
		return out // an all-zero batch: every product is the identity
	}
	base := v.at
	tabs, rows := combTables(v.PK, lc.W, v.id, inner, v.Cols, out.laneCount(0), laneBits, base)
	exps := make([][]paillier.SignedExp, groups)
	maxBits := 0
	for g := range exps {
		es := make([]paillier.SignedExp, rows*inner) // zero past this group's lanes
		for k, ls := range lanes[g] {
			for r := 0; r < rows && r < len(ls); r++ {
				hi := r + 1
				if r == rows-1 {
					hi = len(ls)
				}
				p := lc.PackEncoded(ls[r:hi])
				if p.Sign() == 0 {
					continue
				}
				neg := p.Sign() < 0
				es[r*inner+k] = paillier.SignedExp{Mag: p.Abs(p), Neg: neg}
				maxBits = max(maxBits, p.BitLen())
			}
		}
		exps[g] = es
	}
	emit := func(g, j int, c *paillier.Ciphertext) { out.set(j, g, c) }
	if tabs == nil {
		// Per-call tables, one row: the source is passed anonymous because
		// combTables has already counted this call's sighting.
		dotProducts(v.PK, tableSource{}, base, inner, v.Cols, exps, maxBits, emit)
		return out
	}
	parallel.For(groups, func(g int) {
		for j := 0; j < v.Cols; j++ {
			emit(g, j, tabs.DotGroup(j, exps[g]))
		}
	})
	return out
}

// combTables resolves a serve call's tables through the cache and returns
// them with their comb row count R. A cached entry holds R rows over every
// in·out base of the source, row r being each base raised to 2^(r·W), laid
// out column by column — column j's R·in bases at (j·R + r)·in + k — so
// DotGroup(j, ·) evaluates column j; it is keyed under orientComb, which no
// one-row entry of cachedTables can match. A call whose fill (lanes of its
// fullest group) reaches past the entry's rows rebuilds the entry whole, with
// as many rows as the fill uses up to the most whose tables fit cacheWindow's
// half-budget rule; rows no fill used are never built, so one-lane traffic
// builds exactly the one row the packed kernel always did. The rule's floor
// is the window a per-call build would use for the rows' exponents: a lane's
// when R ≥ 2, the whole pack's when R = 1. Taking the most rows that fit,
// even at a narrower window, won or tied against fewer rows at a wider one
// at every budget measured (4 to 64 MiB at 2048 bits, docs/PERF.md). It
// returns (nil, 1) when the tables are per call: cache off, anonymous
// source, first sighting, or no row that fits.
func combTables(pk *paillier.PublicKey, w uint, id uint64, inner, gpr, fill, laneBits int,
	base func(k, j int) *paillier.Ciphertext) (*paillier.DotTables, int) {
	budget := TableCacheBudget()
	if id == 0 || budget <= 0 {
		return nil, 1
	}
	window := func(r int) uint {
		bits := laneBits
		if r == 1 {
			bits += (fill - 1) * int(w)
		}
		return cacheWindow(inner*r, gpr, bits, pk, budget)
	}
	rows := fill
	for rows > 0 && window(rows) == 0 {
		rows--
	}
	if rows == 0 {
		return nil, 1
	}
	key := tableKey{src: tableSource{id, orientComb}}
	tabs, admit := tableCacheGet(key)
	if tabs == nil && !admit {
		return nil, 1
	}
	if tabs != nil {
		if have := tabs.Bases() / (gpr * inner); have >= rows {
			return tabs, have
		}
	}
	cs := make([]*paillier.Ciphertext, gpr*rows*inner)
	parallel.For(gpr*inner, func(t int) {
		j, k := t/inner, t%inner
		for r, p := range pk.LanePowers(base(k, j), w, rows) {
			cs[(j*rows+r)*inner+k] = p
		}
	})
	tabs = pk.PrecomputeDot(cs, window(rows))
	tableCachePut(key, tabs)
	return tabs, rows
}

// ServeMask draws a fresh ServeMaskBits-bit signed integer mask for every
// lane of prod and returns the mask matrix (this party's integer share) plus
// ⟦prod − S⟧, re-randomized by the fresh pooled encryptions of the packed
// negated masks — the serve-side HE2SS send half, in the integer domain.
// Masks are drawn serially from rng (the peer's session RNG), keeping runs
// reproducible from the session seed.
func ServeMask(rng *rand.Rand, prod *Matrix) (*BigMatrix, *Matrix) {
	s := &BigMatrix{Rows: prod.Rows, Cols: prod.Cols, Scale: prod.Scale, V: make([]*big.Int, prod.Rows*prod.Cols)}
	buf := make([]byte, (ServeMaskBits+7)/8)
	for i := range s.V {
		rng.Read(buf)
		buf[0] &= 0xff >> (8*len(buf) - ServeMaskBits) // exactly ServeMaskBits bits
		v := new(big.Int).SetBytes(buf)
		if rng.Intn(2) == 1 {
			v.Neg(v)
		}
		s.V[i] = v
	}
	masked := prod.Anonymous()
	masked.C = make([]*paillier.Ciphertext, len(prod.C))
	lc := prod.codec()
	gpr := prod.GroupsPerRow()
	parallel.For(len(prod.C), func(t int) {
		i, g := t/gpr, t%gpr
		col := prod.groupCol(g)
		lanes := prod.laneCount(g)
		neg := make([]*big.Int, lanes)
		for l := range neg {
			neg[l] = new(big.Int).Neg(s.V[i*prod.Cols+col+l])
		}
		m := fixedpoint.ToRing(lc.PackEncoded(neg), prod.PK.N)
		c, err := paillier.EncryptPooled(prod.PK, m)
		if err != nil {
			panic(fmt.Sprintf("hetensor: serve mask: %v", err))
		}
		masked.C[t] = prod.PK.AddCipher(prod.C[t], c)
	})
	return s, masked
}

// DecryptPackedInts decrypts a packed matrix to its exact signed lane
// integers — the serve-side HE2SS receive half, which must not round through
// float64 because the mask cancellation happens later, in ℤ.
func DecryptPackedInts(sk *paillier.PrivateKey, m *Matrix) *BigMatrix {
	out := &BigMatrix{Rows: m.Rows, Cols: m.Cols, Scale: m.Scale, V: make([]*big.Int, m.Rows*m.Cols)}
	lc := m.codec()
	gpr := m.GroupsPerRow()
	parallel.For(len(m.C), func(t int) {
		i, g := t/gpr, t%gpr
		col := m.groupCol(g)
		lanes := m.laneCount(g)
		vals := lc.UnpackInts(fixedpoint.FromRing(sk.Decrypt(m.C[t]), sk.N), lanes)
		copy(out.V[i*m.Cols+col:i*m.Cols+col+lanes], vals)
	})
	return out
}

// ANPrime is the modulus of the AN-coded residue check (AHEAD-style): a
// Mersenne prime small enough that residue arithmetic stays in uint64 and
// large enough that a random corruption of a share cell survives the check
// with probability only ~2⁻³¹.
const ANPrime = 1<<31 - 1

// IntMatMulTAN is IntMatMulT with an AN-coded self-check: every output cell
// is recomputed mod ANPrime from the reduced operands — an independent,
// cheap arithmetic path — and compared against the big-integer accumulation.
// It returns the product and the number of cells whose residues disagreed.
// A non-zero count means the share arithmetic itself corrupted (bad RAM, a
// miscompiled kernel): the failure class that never touches the wire, so no
// checksum or decrypt probe can see it.
func IntMatMulTAN(x, u *tensor.Dense) (*BigMatrix, int) {
	out := IntMatMulT(x, u)
	p := big.NewInt(ANPrime)
	// Reduce both operand matrices once; the per-cell check is then a pure
	// uint64 dot product mod ANPrime.
	xr := make([]uint64, x.Rows*x.Cols)
	parallel.For(x.Rows, func(i int) {
		m := new(big.Int)
		for k := 0; k < x.Cols; k++ {
			xr[i*x.Cols+k] = m.Mod(Codec.Encode(x.At(i, k), 1), p).Uint64()
		}
	})
	ur := make([]uint64, u.Rows*u.Cols)
	parallel.For(u.Rows, func(k int) {
		m := new(big.Int)
		for j := 0; j < u.Cols; j++ {
			ur[k*u.Cols+j] = m.Mod(Codec.Encode(u.At(k, j), 1), p).Uint64()
		}
	})
	mismatches := make([]int, u.Cols)
	parallel.For(u.Cols, func(j int) {
		m := new(big.Int)
		for i := 0; i < x.Rows; i++ {
			var acc uint64
			for k := 0; k < x.Cols; k++ {
				acc = (acc + xr[i*x.Cols+k]*ur[k*u.Cols+j]) % ANPrime
			}
			if m.Mod(out.V[j*x.Rows+i], p).Uint64() != acc {
				mismatches[j]++
			}
		}
	})
	total := 0
	for _, n := range mismatches {
		total += n
	}
	return out, total
}

// IntMatMulT computes the exact integer product (X·U)ᵀ with both factors
// encoded at scale 1: out[j][i] = Σ_k ⟨x[i][k]⟩·⟨u[k][j]⟩, a u.Cols×x.Rows
// matrix at scale 2 — the plaintext share of the serve forward, in the same
// transposed integer domain as the homomorphic half.
func IntMatMulT(x, u *tensor.Dense) *BigMatrix {
	if x.Cols != u.Rows {
		panic(fmt.Sprintf("hetensor: IntMatMulT inner dim mismatch %d×%d · %d×%d", x.Rows, x.Cols, u.Rows, u.Cols))
	}
	ex := make([]*big.Int, len(x.Data))
	parallel.For(x.Rows, func(i int) {
		for k := 0; k < x.Cols; k++ {
			ex[i*x.Cols+k] = Codec.Encode(x.At(i, k), 1)
		}
	})
	eu := make([]*big.Int, len(u.Data))
	parallel.For(u.Rows, func(k int) {
		for j := 0; j < u.Cols; j++ {
			eu[k*u.Cols+j] = Codec.Encode(u.At(k, j), 1)
		}
	})
	out := &BigMatrix{Rows: u.Cols, Cols: x.Rows, Scale: 2, V: make([]*big.Int, u.Cols*x.Rows)}
	parallel.For(u.Cols, func(j int) {
		tmp := new(big.Int)
		for i := 0; i < x.Rows; i++ {
			acc := new(big.Int)
			for k := 0; k < x.Cols; k++ {
				if ex[i*x.Cols+k].Sign() == 0 || eu[k*u.Cols+j].Sign() == 0 {
					continue
				}
				acc.Add(acc, tmp.Mul(ex[i*x.Cols+k], eu[k*u.Cols+j]))
			}
			out.V[j*x.Rows+i] = acc
		}
	})
	return out
}
