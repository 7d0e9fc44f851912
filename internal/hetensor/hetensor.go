// Package hetensor vectorizes Paillier operations over matrices. It is the
// Go analogue of the paper's CryptoTensor abstraction (Sec. 7.1): encrypted
// matrices with dense and sparse plaintext·ciphertext matrix multiplication,
// encrypted embedding lookup and scatter-add, and fixed-point scale
// bookkeeping.
//
// Scale discipline: a CipherMatrix carries the fixed-point scale of its
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

// At returns the ciphertext at (i, j).
func (m *CipherMatrix) At(i, j int) *paillier.Ciphertext { return m.C[i*m.Cols+j] }

// Set stores a ciphertext at (i, j).
func (m *CipherMatrix) Set(i, j int, c *paillier.Ciphertext) { m.C[i*m.Cols+j] = c }

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

// Decrypt decrypts a cipher matrix back to float64 at its scale.
func Decrypt(sk *paillier.PrivateKey, m *CipherMatrix) *tensor.Dense {
	out := tensor.NewDense(m.Rows, m.Cols)
	parallel.For(len(m.C), func(i int) {
		out.Data[i] = Codec.DecodeRing(sk.Decrypt(m.C[i]), m.Scale, sk.N)
	})
	return out
}

// AddCipher returns the elementwise homomorphic sum m + o. Shapes and scales
// must match.
func (m *CipherMatrix) AddCipher(o *CipherMatrix) *CipherMatrix {
	if m.Rows != o.Rows || !m.SameLayout(o) {
		panic(fmt.Sprintf("hetensor: AddCipher mismatch: %d×%d@%d vs %d×%d@%d", m.Rows, m.Cols, m.Scale, o.Rows, o.Cols, o.Scale))
	}
	out := &CipherMatrix{Rows: m.Rows, Cols: m.Cols, Scale: m.Scale, PK: m.PK, C: make([]*paillier.Ciphertext, len(m.C))}
	parallel.For(len(m.C), func(i int) {
		out.C[i] = m.PK.AddCipher(m.C[i], o.C[i])
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

// MulPlainLeft computes ⟦X·W⟧ from plaintext X (dense) and encrypted W.
// X is encoded at scale 1, so the result has scale W.Scale+1. Zero entries
// of X are skipped. Each output cell is one Straus dot kernel evaluation
// (see dot.go) unless the textbook paths are toggled on.
func MulPlainLeft(x *tensor.Dense, w *CipherMatrix) *CipherMatrix {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("hetensor: MulPlainLeft inner dim mismatch %d×%d · %d×%d", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	out := NewCipherMatrix(w.PK, x.Rows, w.Cols, w.Scale+1)
	if TextbookExp() {
		parallel.For(x.Rows, func(i int) {
			orow := out.Row(i)
			xrow := x.Row(i)
			for k, a := range xrow {
				if a == 0 {
					continue
				}
				ea := Codec.Encode(a, 1)
				wrow := w.Row(k)
				for j := range orow {
					orow[j] = w.PK.AddCipher(orow[j], w.PK.MulPlain(wrow[j], ea))
				}
			}
		})
		return out
	}
	exps, maxBits := denseRowExps(x)
	dotProducts(w.PK, tableSource{w.id, orientCol}, func(k, j int) *paillier.Ciphertext { return w.Row(k)[j] },
		x.Cols, w.Cols, exps, maxBits,
		func(i, j int, c *paillier.Ciphertext) { out.Row(i)[j] = c })
	return out
}

// MulPlainLeftCSR is MulPlainLeft for a sparse plaintext X; only the stored
// non-zeros generate homomorphic work. This is the operation behind BlindFL's
// Table 5 advantage on sparse datasets.
func MulPlainLeftCSR(x *tensor.CSR, w *CipherMatrix) *CipherMatrix {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("hetensor: MulPlainLeftCSR inner dim mismatch %d×%d · %d×%d", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	out := NewCipherMatrix(w.PK, x.Rows, w.Cols, w.Scale+1)
	if TextbookExp() {
		parallel.For(x.Rows, func(i int) {
			orow := out.Row(i)
			cols, vals := x.RowNNZ(i)
			for t, k := range cols {
				ea := Codec.Encode(vals[t], 1)
				wrow := w.Row(k)
				for j := range orow {
					orow[j] = w.PK.AddCipher(orow[j], w.PK.MulPlain(wrow[j], ea))
				}
			}
		})
		return out
	}
	dotCSRMul(w.PK, x, w.Row, w.Cols, out.Row)
	return out
}

// TransposeMulLeft computes ⟦Xᵀ·G⟧ from plaintext X (rows×cols) and
// encrypted G (rows×n); the result is cols×n at scale G.Scale+1. This is the
// gradient shape ∇W = Xᵀ⟦∇Z⟧.
func TransposeMulLeft(x *tensor.Dense, g *CipherMatrix) *CipherMatrix {
	out := NewCipherMatrix(g.PK, x.Cols, g.Cols, g.Scale+1)
	TransposeMulLeftAcc(out, x, g)
	return out
}

// TransposeMulLeftAcc accumulates ⟦Xᵀ·G⟧ into acc (x.Cols×g.Cols at scale
// g.Scale+1). Because Xᵀ·G = Σ over row-chunks X[lo:hi]ᵀ·G[lo:hi], the
// streamed backward pass calls this once per received derivative chunk with
// the matching feature rows, overlapping the accumulation with the peer's
// encryption of the next chunk.
func TransposeMulLeftAcc(acc *CipherMatrix, x *tensor.Dense, g *CipherMatrix) {
	if x.Rows != g.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulLeft outer dim mismatch %d×%d ᵀ· %d×%d", x.Rows, x.Cols, g.Rows, g.Cols))
	}
	if acc.Rows != x.Cols || acc.Cols != g.Cols || acc.Scale != g.Scale+1 {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftAcc accumulator %d×%d@%d, want %d×%d@%d",
			acc.Rows, acc.Cols, acc.Scale, x.Cols, g.Cols, g.Scale+1))
	}
	if TextbookExp() {
		// Parallelize over output rows (columns of X) to avoid write contention.
		parallel.For(x.Cols, func(k int) {
			orow := acc.Row(k)
			for i := 0; i < x.Rows; i++ {
				a := x.At(i, k)
				if a == 0 {
					continue
				}
				ea := Codec.Encode(a, 1)
				grow := g.Row(i)
				for j := range orow {
					orow[j] = g.PK.AddCipher(orow[j], g.PK.MulPlain(grow[j], ea))
				}
			}
		})
		return
	}
	exps, maxBits := denseColExps(x)
	dotProducts(g.PK, tableSource{g.id, orientCol}, func(i, j int) *paillier.Ciphertext { return g.Row(i)[j] },
		x.Rows, g.Cols, exps, maxBits,
		func(k, j int, c *paillier.Ciphertext) {
			orow := acc.Row(k)
			orow[j] = g.PK.AddCipher(orow[j], c)
		})
}

// TransposeMulLeftCSR computes ⟦Xᵀ·G⟧ for sparse X. Rows of the output are
// accumulated serially per output row bucket after a transposition pass.
func TransposeMulLeftCSR(x *tensor.CSR, g *CipherMatrix) *CipherMatrix {
	if x.Rows != g.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftCSR outer dim mismatch %d×%d ᵀ· %d×%d", x.Rows, x.Cols, g.Rows, g.Cols))
	}
	out := NewCipherMatrix(g.PK, x.Cols, g.Cols, g.Scale+1)
	TransposeMulLeftCSRAcc(out, x, 0, g)
	return out
}

// TransposeMulLeftCSRAcc accumulates ⟦X[lo:lo+g.Rows]ᵀ·G⟧ into acc for a
// row-chunk G of the derivative: the sparse analogue of TransposeMulLeftAcc
// (CSR matrices have no cheap row-slice view, so the chunk offset is passed
// instead).
func TransposeMulLeftCSRAcc(acc *CipherMatrix, x *tensor.CSR, lo int, g *CipherMatrix) {
	if lo < 0 || lo+g.Rows > x.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftCSRAcc chunk [%d,%d) of %d rows", lo, lo+g.Rows, x.Rows))
	}
	if acc.Rows != x.Cols || acc.Cols != g.Cols || acc.Scale != g.Scale+1 {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftCSRAcc accumulator %d×%d@%d, want %d×%d@%d",
			acc.Rows, acc.Cols, acc.Scale, x.Cols, g.Cols, g.Scale+1))
	}
	if TextbookExp() {
		// Bucket non-zeros by column so each output row is owned by one goroutine.
		type nz struct {
			row int
			val float64
		}
		buckets := make([][]nz, x.Cols)
		for i := 0; i < g.Rows; i++ {
			cols, vals := x.RowNNZ(lo + i)
			for t, k := range cols {
				buckets[k] = append(buckets[k], nz{i, vals[t]})
			}
		}
		parallel.For(x.Cols, func(k int) {
			orow := acc.Row(k)
			for _, e := range buckets[k] {
				ea := Codec.Encode(e.val, 1)
				grow := g.Row(e.row)
				for j := range orow {
					orow[j] = g.PK.AddCipher(orow[j], g.PK.MulPlain(grow[j], ea))
				}
			}
		})
		return
	}
	dotCSRTransposeAcc(g.PK, x, lo, g.Rows, g.Row, g.Cols, acc.Row)
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

// ScaleUp multiplies every entry by the scale-1 encoding of s, raising the
// scale by one. Used to align scales before cipher additions.
func (m *CipherMatrix) ScaleUp(s float64) *CipherMatrix {
	out := &CipherMatrix{Rows: m.Rows, Cols: m.Cols, Scale: m.Scale + 1, PK: m.PK, C: make([]*paillier.Ciphertext, len(m.C))}
	if TextbookExp() {
		es := Codec.Encode(s, 1)
		parallel.For(len(m.C), func(i int) {
			out.C[i] = m.PK.MulPlain(m.C[i], es)
		})
		return out
	}
	mag, neg := Codec.EncodeSigned(s, 1)
	parallel.For(len(m.C), func(i int) {
		out.C[i] = m.PK.MulPlainSigned(m.C[i], mag, neg)
	})
	return out
}

// Lookup gathers rows of an encrypted embedding table: the analogue of
// tensor.Lookup with Q encrypted. x is batch×fields; the result is
// batch×(fields·dim) at the table's scale.
func Lookup(q *CipherMatrix, x *tensor.IntMatrix) *CipherMatrix {
	dim := q.Cols
	out := &CipherMatrix{Rows: x.Rows, Cols: x.Cols * dim, Scale: q.Scale, PK: q.PK, C: make([]*paillier.Ciphertext, x.Rows*x.Cols*dim)}
	parallel.For(x.Rows, func(i int) {
		dst := out.Row(i)
		for f, idx := range x.Row(i) {
			if idx < 0 || idx >= q.Rows {
				panic(fmt.Sprintf("hetensor: Lookup index %d out of vocab %d", idx, q.Rows))
			}
			copy(dst[f*dim:(f+1)*dim], q.Row(idx))
		}
	})
	return out
}

// LookupBackward scatter-adds encrypted derivatives into an encrypted table
// gradient: the analogue of tensor.LookupBackward with ∇E encrypted.
func LookupBackward(gradE *CipherMatrix, x *tensor.IntMatrix, vocab, dim int) *CipherMatrix {
	if gradE.Rows != x.Rows || gradE.Cols != x.Cols*dim {
		panic("hetensor: LookupBackward shape mismatch")
	}
	out := NewCipherMatrix(gradE.PK, vocab, dim, gradE.Scale)
	// Serial scatter: rows of the output may collide across instances.
	for i := 0; i < x.Rows; i++ {
		src := gradE.Row(i)
		for f, idx := range x.Row(i) {
			dst := out.Row(idx)
			for k := 0; k < dim; k++ {
				dst[k] = gradE.PK.AddCipher(dst[k], src[f*dim+k])
			}
		}
	}
	return out
}
