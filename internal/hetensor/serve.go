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
// The base set is the *unpacked* ⟦V⟧ column, the identical tableSource the
// training-time MulLeft uses, so a long-lived serve session's queries
// warm and reuse the same persistent dot-table cache entries.
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
// The kernel always runs the signed-exponent engine: packed exponents are the
// mechanism, not an optimization, so SetTextbook does not apply. The
// base columns and orientation match MulLeft on the same V, so serve
// queries resolve through the identical persistent dot-table cache entries.
func ServeProducts(x *tensor.Dense, v *CipherMatrix) *PackedMatrix {
	if x.Cols != v.Rows {
		panic(fmt.Sprintf("hetensor: ServeProducts inner dim mismatch %d×%d · %d×%d", x.Rows, x.Cols, v.Rows, v.Cols))
	}
	if x.Rows == 0 {
		panic("hetensor: ServeProducts of an empty batch")
	}
	lc := packingFor(v.PK)
	out := NewPackedMatrix(v.PK, v.Cols, x.Rows, x.Rows, v.Scale+1)
	groups := out.GroupsPerRow()
	exps := make([][]paillier.SignedExp, groups)
	maxBits := 0
	for g := 0; g < groups; g++ {
		lo := g * lc.K
		hi := lo + out.laneCount(g)
		es := make([]paillier.SignedExp, x.Cols)
		lanes := make([]*big.Int, hi-lo)
		for k := 0; k < x.Cols; k++ {
			zero := true
			for i := lo; i < hi; i++ {
				lanes[i-lo] = Codec.Encode(x.At(i, k), 1)
				if lanes[i-lo].Sign() != 0 {
					zero = false
				}
			}
			if zero {
				continue
			}
			p := lc.PackEncoded(lanes)
			neg := p.Sign() < 0
			es[k] = paillier.SignedExp{Mag: p.Abs(p), Neg: neg}
			if bl := es[k].Mag.BitLen(); bl > maxBits {
				maxBits = bl
			}
		}
		exps[g] = es
	}
	dotProducts(v.PK, tableSource{v.id, orientCol}, func(k, j int) *paillier.Ciphertext { return v.Row(k)[j] },
		x.Cols, v.Cols, exps, maxBits,
		func(g, j int, c *paillier.Ciphertext) { out.Row(j)[g] = c })
	return out
}

// ServeMask draws a fresh ServeMaskBits-bit signed integer mask for every
// lane of prod and returns the mask matrix (this party's integer share) plus
// ⟦prod − S⟧, re-randomized by the fresh pooled encryptions of the packed
// negated masks — the serve-side HE2SS send half, in the integer domain.
// Masks are drawn serially from rng (the peer's session RNG), keeping runs
// reproducible from the session seed.
func ServeMask(rng *rand.Rand, prod *PackedMatrix) (*BigMatrix, *PackedMatrix) {
	s := &BigMatrix{Rows: prod.Rows, Cols: prod.Cols, Scale: prod.Scale, V: make([]*big.Int, prod.Rows*prod.Cols)}
	buf := make([]byte, ServeMaskBits/8)
	for i := range s.V {
		rng.Read(buf)
		v := new(big.Int).SetBytes(buf)
		if rng.Intn(2) == 1 {
			v.Neg(v)
		}
		s.V[i] = v
	}
	masked := &PackedMatrix{Rows: prod.Rows, Cols: prod.Cols, Block: prod.Block, Scale: prod.Scale,
		W: prod.W, K: prod.K, PK: prod.PK, C: make([]*paillier.Ciphertext, len(prod.C))}
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
func DecryptPackedInts(sk *paillier.PrivateKey, m *PackedMatrix) *BigMatrix {
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
