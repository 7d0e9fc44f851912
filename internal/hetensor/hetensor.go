// Package hetensor vectorizes Paillier operations over matrices. It is the
// Go analogue of the paper's CryptoTensor abstraction (Sec. 7.1): encrypted
// matrices with dense and sparse plaintext·ciphertext matrix multiplication,
// encrypted embedding lookup and scatter-add, and fixed-point scale
// bookkeeping.
//
// One kernel family: an encrypted matrix holds one value per ciphertext
// (CipherMatrix) or K (PackedMatrix), and every product is written once over
// its grid of ciphertexts (kernels.go), so the lane format changes the width
// of the grid and the lanes of the result, never the kernel. The typed names
// in compat.go forward to it.
//
// Scale discipline: an encrypted matrix carries the fixed-point scale of its
// plaintexts. Multiplying by a plaintext matrix (always encoded at scale 1)
// raises the scale by one; additions require equal scales. Values are
// decrypted back to float64 before any further non-linear processing, so the
// scale never exceeds 2.
//
// Matmul kernels resolve their Straus window tables through a process-wide,
// byte-budgeted LRU cache (tablecache.go) when SetTableCacheBudget enables
// it: tables are keyed by ciphertext-matrix identity (IDs minted at
// encryption and on receive; mutable accumulators and row-slice views are
// identity-less and bypass the cache), built at a wider window than a
// single call would justify, and reused across kernel invocations, batches
// and epochs. Invalidation is by construction: cells of an identified
// matrix are never replaced, and a refreshed weight copy is a new matrix
// with a new identity, so stale entries cannot be observed — they only age
// out LRU-first when the byte budget fills. Results are bit-identical with
// the cache on or off.
package hetensor

import (
	"fmt"
	"math/big"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// Codec is the fixed-point codec shared by every encrypted tensor. 40
// fractional bits keeps the quantization error of a product below
// maskMag·2⁻⁴¹ even when weight shares have drifted to mask magnitude
// (~2²⁰), while a scale-2 value still needs only ~120 bits of a ≥512-bit
// Paillier plaintext.
var Codec = fixedpoint.Codec{F: 40}

// CipherMatrix is a rows×cols matrix of Paillier ciphertexts under PK.
//
// id is the matrix's table-cache identity (tablecache.go): non-zero only for
// matrices whose cells are never replaced after construction — encryption
// results and received matrices. Accumulators and row-slice views stay 0 and
// bypass the cache. The field is unexported, so gob transfers drop it and
// the receiver mints its own.
type CipherMatrix struct {
	Rows, Cols int
	Scale      uint
	PK         *paillier.PublicKey
	C          []*paillier.Ciphertext

	id uint64
}

// NewCipherMatrix allocates a matrix of unrandomized encryptions of zero
// (the multiplicative identity of the ciphertext group), suitable as an
// accumulator for homomorphic sums.
func NewCipherMatrix(pk *paillier.PublicKey, rows, cols int, scale uint) *CipherMatrix {
	m := &CipherMatrix{Rows: rows, Cols: cols, Scale: scale, PK: pk, C: make([]*paillier.Ciphertext, rows*cols)}
	for i := range m.C {
		m.C[i] = &paillier.Ciphertext{C: big.NewInt(1)}
	}
	return m
}

// Row returns a view of row i.
func (m *CipherMatrix) Row(i int) []*paillier.Ciphertext { return m.C[i*m.Cols : (i+1)*m.Cols] }

// RowSlice returns a view of rows [lo, hi) sharing m's ciphertexts, its
// capacity clipped so that appending to the view never writes into m.
func (m *CipherMatrix) RowSlice(lo, hi int) Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("hetensor: RowSlice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &CipherMatrix{Rows: hi - lo, Cols: m.Cols, Scale: m.Scale, PK: m.PK, C: m.C[lo*m.Cols : hi*m.Cols : hi*m.Cols]}
}

func (m *CipherMatrix) Anonymous() Matrix {
	cp := *m
	cp.id = 0
	return &cp
}

// Encrypt encrypts a dense matrix elementwise at the given scale. When a
// paillier blinding pool is registered for pk, encryption takes the
// precomputed-randomness fast path.
func Encrypt(pk *paillier.PublicKey, d *tensor.Dense, scale uint) *CipherMatrix {
	out := &CipherMatrix{Rows: d.Rows, Cols: d.Cols, Scale: scale, PK: pk, C: make([]*paillier.Ciphertext, len(d.Data))}
	parallel.For(len(d.Data), func(i int) {
		m := Codec.EncodeRing(d.Data[i], scale, pk.N)
		c, err := paillier.EncryptPooled(pk, m)
		if err != nil {
			panic(fmt.Sprintf("hetensor: encrypt: %v", err))
		}
		out.C[i] = c
	})
	out.MintID()
	return out
}

// EncryptRows encrypts the given rows of a plaintext matrix as a
// len(rows)×d.Cols cipher matrix (row i of the result is row rows[i] of d),
// through the registered blinding pool like every other encryption site.
func EncryptRows(pk *paillier.PublicKey, d *tensor.Dense, rows []int, scale uint) *CipherMatrix {
	out := &CipherMatrix{Rows: len(rows), Cols: d.Cols, Scale: scale, PK: pk, C: make([]*paillier.Ciphertext, len(rows)*d.Cols)}
	parallel.For(len(rows), func(i int) {
		src := d.Row(rows[i])
		dst := out.Row(i)
		for j, v := range src {
			m := Codec.EncodeRing(v, scale, pk.N)
			c, err := paillier.EncryptPooled(pk, m)
			if err != nil {
				panic(fmt.Sprintf("hetensor: EncryptRows: %v", err))
			}
			dst[j] = c
		}
	})
	return out
}

// Decrypt decrypts a cipher matrix back to float64 at its scale.
func Decrypt(sk *paillier.PrivateKey, m *CipherMatrix) *tensor.Dense {
	out := tensor.NewDense(m.Rows, m.Cols)
	parallel.For(len(m.C), func(i int) {
		out.Data[i] = Codec.DecodeRing(sk.Decrypt(m.C[i]), m.Scale, sk.N)
	})
	return out
}

// AddPlain returns ⟦m + d⟧ with d encoded at m's scale (no fresh
// randomness; use Mask for sends).
func (m *CipherMatrix) AddPlain(d *tensor.Dense) Matrix {
	if m.Rows != d.Rows || m.Cols != d.Cols {
		panic("hetensor: AddPlain shape mismatch")
	}
	out := &CipherMatrix{Rows: m.Rows, Cols: m.Cols, Scale: m.Scale, PK: m.PK, C: make([]*paillier.Ciphertext, len(m.C))}
	parallel.For(len(m.C), func(i int) {
		out.C[i] = m.PK.AddPlain(m.C[i], Codec.EncodeRing(d.Data[i], m.Scale, m.PK.N))
	})
	return out
}

func (m *CipherMatrix) SubPlainFresh(d *tensor.Dense) Matrix {
	if m.Rows != d.Rows || m.Cols != d.Cols {
		panic("hetensor: SubPlainFresh shape mismatch")
	}
	out := &CipherMatrix{Rows: m.Rows, Cols: m.Cols, Scale: m.Scale, PK: m.PK, C: make([]*paillier.Ciphertext, len(m.C))}
	parallel.For(len(m.C), func(i int) {
		neg, err := paillier.EncryptPooled(m.PK, Codec.EncodeRing(-d.Data[i], m.Scale, m.PK.N))
		if err != nil {
			panic(fmt.Sprintf("hetensor: SubPlainFresh: %v", err))
		}
		out.C[i] = m.PK.AddCipher(m.C[i], neg)
	})
	return out
}

// MulPlainRightTranspose computes ⟦G·Wᵀ⟧ from encrypted G (m×n) and
// plaintext W (p×n); the result is m×p at scale G.Scale+1. This is the
// derivative shape ∇E = ⟦∇Z⟧·Wᵀ.
func MulPlainRightTranspose(g *CipherMatrix, w *tensor.Dense) *CipherMatrix {
	if g.Cols != w.Cols {
		panic(fmt.Sprintf("hetensor: MulPlainRightTranspose inner dim mismatch %d×%d · %d×%dᵀ", g.Rows, g.Cols, w.Rows, w.Cols))
	}
	out := NewCipherMatrix(g.PK, g.Rows, w.Rows, g.Scale+1)
	if TextbookExp() {
		parallel.For(g.Rows, func(i int) {
			grow := g.Row(i)
			orow := out.Row(i)
			for j := 0; j < w.Rows; j++ {
				wrow := w.Row(j)
				acc := orow[j]
				for k, b := range wrow {
					if b == 0 {
						continue
					}
					acc = g.PK.AddCipher(acc, g.PK.MulPlain(grow[k], Codec.Encode(b, 1)))
				}
				orow[j] = acc
			}
		})
		return out
	}
	// Rows of W are the exponent vectors; each row i of G is one fixed base
	// set, so its window tables are shared across all w.Rows outputs.
	exps, maxBits := denseRowExps(w)
	dotProducts(g.PK, tableSource{g.id, orientRow}, func(k, i int) *paillier.Ciphertext { return g.Row(i)[k] },
		g.Cols, g.Rows, exps, maxBits,
		func(j, i int, c *paillier.Ciphertext) { out.Row(i)[j] = c })
	return out
}
