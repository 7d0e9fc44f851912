package hetensor

import (
	"fmt"

	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// The plaintext·ciphertext kernels. Each is written once, over the
// ciphertext grid of its encrypted operand: a row of a matrix is
// GroupsPerRow ciphertexts whatever number of values each holds, and a
// product with a plaintext scalar multiplies every lane of a ciphertext at
// once, so packing changes only the width of the grid and the lanes the
// result is allocated in (Matrix.like), never the arithmetic. Each kernel has
// one engine path (dot.go) and one textbook path, the reference SetTextbook
// selects and the equivalence tests compare against.

// mulAdd is the textbook step acc[j] ·= row[j]^a: one full-width MulPlain
// per ciphertext, skipped for a zero a.
func mulAdd(pk *paillier.PublicKey, acc, row []*paillier.Ciphertext, a float64) {
	if a == 0 {
		return
	}
	ea := Codec.Encode(a, 1)
	for j := range acc {
		acc[j] = pk.AddCipher(acc[j], pk.MulPlain(row[j], ea))
	}
}

// MulLeft computes ⟦X·W⟧ from dense plaintext X and encrypted W, in W's
// lanes at scale W's + 1. Each result ciphertext is one dot product of a row
// of X with a ciphertext column of W; zero entries of X are skipped.
func MulLeft(x *tensor.Dense, w *Matrix) *Matrix {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("hetensor: MulLeft inner dim mismatch %d×%d · %d rows", x.Rows, x.Cols, w.Rows))
	}
	out := w.NewAcc(x.Rows)
	if TextbookExp() {
		parallel.For(x.Rows, func(i int) {
			for k, a := range x.Row(i) {
				mulAdd(w.PK, out.Row(i), w.Row(k), a)
			}
		})
		return out
	}
	exps, maxBits := denseRowExps(x)
	dotProducts(w.PK, tableSource{w.id, orientCol}, w.at, x.Cols, w.GroupsPerRow(), exps, maxBits, out.set)
	return out
}

// MulLeftCSR is MulLeft for sparse plaintext X: only the stored non-zeros
// generate homomorphic work, the operation behind BlindFL's Table 5
// advantage on sparse datasets.
func MulLeftCSR(x *tensor.CSR, w *Matrix) *Matrix {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("hetensor: MulLeftCSR inner dim mismatch %d×%d · %d rows", x.Rows, x.Cols, w.Rows))
	}
	out := w.NewAcc(x.Rows)
	if TextbookExp() {
		parallel.For(x.Rows, func(i int) {
			cols, vals := x.RowNNZ(i)
			for t, k := range cols {
				mulAdd(w.PK, out.Row(i), w.Row(k), vals[t])
			}
		})
		return out
	}
	dotCSRMul(x, w, out)
	return out
}

// checkAcc panics unless acc is the xCols-tall accumulator of products with g
// (what g.NewAcc(xCols) returns).
func checkAcc(op string, acc *Matrix, xCols int, g *Matrix) {
	if acc.Rows != xCols || !acc.SameLayout(g.NewAcc(0)) {
		panic(fmt.Sprintf("hetensor: %s accumulator %d×%d@%d for %d feature columns and a %d×%d@%d operand",
			op, acc.Rows, acc.Cols, acc.Scale, xCols, g.Rows, g.Cols, g.Scale))
	}
}

// TransposeMulAcc accumulates ⟦Xᵀ·G⟧ into acc (from G.NewAcc(X.Cols)) and
// returns it: the gradient shape ∇W = Xᵀ⟦∇Z⟧. Because Xᵀ·G is the sum over
// row-chunks X[lo:hi]ᵀ·G[lo:hi], the streamed backward pass calls it once per
// received derivative chunk with the matching feature rows.
func TransposeMulAcc(acc *Matrix, x *tensor.Dense, g *Matrix) *Matrix {
	if x.Rows != g.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulAcc outer dim mismatch %d×%d ᵀ· %d rows", x.Rows, x.Cols, g.Rows))
	}
	checkAcc("TransposeMulAcc", acc, x.Cols, g)
	if TextbookExp() {
		// Parallel over output rows (columns of X): no write contention.
		parallel.For(x.Cols, func(k int) {
			for i := 0; i < x.Rows; i++ {
				mulAdd(g.PK, acc.Row(k), g.Row(i), x.At(i, k))
			}
		})
		return acc
	}
	exps, maxBits := denseColExps(x)
	dotProducts(g.PK, tableSource{g.id, orientCol}, g.at, x.Rows, g.GroupsPerRow(), exps, maxBits,
		func(k, t int, c *paillier.Ciphertext) { acc.set(k, t, g.PK.AddCipher(acc.at(k, t), c)) })
	return acc
}

// TransposeMulCSRAcc accumulates ⟦X[lo:lo+G.rows]ᵀ·G⟧ into acc for sparse X
// and returns it: TransposeMulAcc for a row-chunk G, the chunk offset passed
// because a CSR matrix has no cheap row-slice view. With X's columns
// renumbered to the batch's touched set (tensor.CSR.CompactCols) it is the
// sparse layer's touched-row gradient.
func TransposeMulCSRAcc(acc *Matrix, x *tensor.CSR, lo int, g *Matrix) *Matrix {
	if lo < 0 || lo+g.Rows > x.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulCSRAcc chunk [%d,%d) of %d rows", lo, lo+g.Rows, x.Rows))
	}
	checkAcc("TransposeMulCSRAcc", acc, x.Cols, g)
	buckets := csrColumns(x, lo, g.Rows)
	if TextbookExp() {
		parallel.For(x.Cols, func(k int) {
			for t, i := range buckets[k].rows {
				mulAdd(g.PK, acc.Row(k), g.Row(i), buckets[k].vals[t])
			}
		})
		return acc
	}
	dotCSRTransposeAcc(buckets, g, acc)
	return acc
}

// LookupRows gathers rows of an encrypted embedding table Q (vocab×dim, in
// one block when packed): the analogue of tensor.Lookup with Q encrypted.
// x is batch×fields; the result is batch×(fields·dim) in Q's lanes and one
// block per field, at Q's scale.
func LookupRows(q *Matrix, x *tensor.IntMatrix) *Matrix {
	vocab, dim := q.Rows, q.Cols
	if !q.SameLayout(q.like(0, dim, dim, q.Scale)) {
		panic("hetensor: LookupRows table must be packed with Block == Cols")
	}
	out := q.like(x.Rows, x.Cols*dim, dim, q.Scale)
	per := q.GroupsPerRow()
	parallel.For(x.Rows, func(i int) {
		dst := out.Row(i)
		for f, idx := range x.Row(i) {
			if idx < 0 || idx >= vocab {
				panic(fmt.Sprintf("hetensor: LookupRows index %d out of vocab %d", idx, vocab))
			}
			copy(dst[f*per:(f+1)*per], q.Row(idx))
		}
	})
	return out
}

// LookupBackwardRows scatter-adds the encrypted derivative ∇E (batch ×
// fields·dim, one block per field when packed) into the vocab×dim table
// gradient in ∇E's lanes: the analogue of tensor.LookupBackward with ∇E
// encrypted. The (instance, field) pairs are bucketed by table row and the
// rows summed in parallel; products mod N² commute, so the ciphertexts are
// those of the instance-order scatter.
func LookupBackwardRows(gradE *Matrix, x *tensor.IntMatrix, vocab, dim int) *Matrix {
	if gradE.Rows != x.Rows || gradE.Cols != x.Cols*dim || !gradE.SameLayout(gradE.like(0, gradE.Cols, dim, gradE.Scale)) {
		panic(fmt.Sprintf("hetensor: LookupBackwardRows of a %d×%d derivative for %d×%d indices of dim %d",
			gradE.Rows, gradE.Cols, x.Rows, x.Cols, dim))
	}
	out := gradE.like(vocab, dim, dim, gradE.Scale)
	per := out.GroupsPerRow()
	buckets := make([][]int, vocab) // table row → first ciphertext of each ∇E block scattered into it
	for i := 0; i < x.Rows; i++ {
		for f, idx := range x.Row(i) {
			buckets[idx] = append(buckets[idx], (i*x.Cols+f)*per)
		}
	}
	parallel.For(vocab, func(v int) {
		dst := out.Row(v)
		for _, src := range buckets[v] {
			for k := range dst {
				dst[k] = gradE.PK.AddCipher(dst[k], gradE.C[src+k])
			}
		}
	})
	return out
}

// Add returns the homomorphic sum a + b of two matrices of one layout.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || !a.SameLayout(b) {
		panic(fmt.Sprintf("hetensor: Add of a %d-row %+v and a %d-row %+v layout", a.Rows, a.codec(), b.Rows, b.codec()))
	}
	out := a.like(a.Rows, a.Cols, 0, a.Scale)
	parallel.For(len(out.C), func(i int) {
		out.C[i] = a.PK.AddCipher(a.C[i], b.C[i])
	})
	return out
}

// MulPlainRightTranspose computes ⟦G·Wᵀ⟧ from encrypted G (m×n, one value
// per ciphertext) and plaintext W (p×n); the result is m×p at scale
// G.Scale+1, one value per ciphertext in G's lanes. This is the derivative
// shape ∇E = ⟦∇Z⟧·Wᵀ.
func MulPlainRightTranspose(g *Matrix, w *tensor.Dense) *Matrix {
	if g.Cols != w.Cols || g.GroupsPerRow() != g.Cols {
		panic(fmt.Sprintf("hetensor: MulPlainRightTranspose of %d×%d in %d ciphertexts a row · %d×%dᵀ",
			g.Rows, g.Cols, g.GroupsPerRow(), w.Rows, w.Cols))
	}
	out := g.like(g.Rows, w.Rows, 1, g.Scale+1)
	if TextbookExp() {
		parallel.For(g.Rows, func(i int) {
			for j := 0; j < w.Rows; j++ {
				acc := out.at(i, j)
				for k, b := range w.Row(j) {
					if b != 0 {
						acc = g.PK.AddCipher(acc, g.PK.MulPlain(g.at(i, k), Codec.Encode(b, 1)))
					}
				}
				out.set(i, j, acc)
			}
		})
		return out
	}
	// Rows of W are the exponent vectors; each row i of G is one fixed base
	// set, so its window tables are shared across all w.Rows outputs.
	exps, maxBits := denseRowExps(w)
	dotProducts(g.PK, tableSource{g.id, orientRow}, func(k, i int) *paillier.Ciphertext { return g.at(i, k) },
		g.Cols, g.Rows, exps, maxBits, func(j, i int, c *paillier.Ciphertext) { out.set(i, j, c) })
	return out
}
