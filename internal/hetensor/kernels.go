package hetensor

import (
	"fmt"

	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// The plaintext·ciphertext kernels. Each is written once, over the
// ciphertext grid of its encrypted operand (Matrix.grid): a row of a matrix
// is per ciphertexts whatever number of values each holds, and a product
// with a plaintext scalar multiplies every lane of a ciphertext at once, so
// packing changes only the width of the grid and the lanes the result is
// allocated in (Matrix.like), never the arithmetic. Each kernel has one
// engine path (dot.go) and one textbook path, the reference SetTextbook
// selects and the equivalence tests compare against.

// grid is an encrypted matrix as the kernels see it: rows of per ciphertexts
// under pk, and the table-cache identity id (0 for none).
type grid struct {
	pk        *paillier.PublicKey
	rows, per int
	c         []*paillier.Ciphertext
	id        uint64
}

func (g grid) row(i int) []*paillier.Ciphertext     { return g.c[i*g.per : (i+1)*g.per] }
func (g grid) at(i, j int) *paillier.Ciphertext     { return g.c[i*g.per+j] }
func (g grid) set(i, j int, c *paillier.Ciphertext) { g.c[i*g.per+j] = c }

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
func MulLeft(x *tensor.Dense, w Matrix) Matrix {
	wg := w.grid()
	if x.Cols != wg.rows {
		panic(fmt.Sprintf("hetensor: MulLeft inner dim mismatch %d×%d · %d rows", x.Rows, x.Cols, wg.rows))
	}
	out := w.NewAcc(x.Rows)
	og := out.grid()
	if TextbookExp() {
		parallel.For(x.Rows, func(i int) {
			for k, a := range x.Row(i) {
				mulAdd(wg.pk, og.row(i), wg.row(k), a)
			}
		})
		return out
	}
	exps, maxBits := denseRowExps(x)
	dotProducts(wg.pk, tableSource{wg.id, orientCol}, wg.at, x.Cols, wg.per, exps, maxBits, og.set)
	return out
}

// MulLeftCSR is MulLeft for sparse plaintext X: only the stored non-zeros
// generate homomorphic work, the operation behind BlindFL's Table 5
// advantage on sparse datasets.
func MulLeftCSR(x *tensor.CSR, w Matrix) Matrix {
	wg := w.grid()
	if x.Cols != wg.rows {
		panic(fmt.Sprintf("hetensor: MulLeftCSR inner dim mismatch %d×%d · %d rows", x.Rows, x.Cols, wg.rows))
	}
	out := w.NewAcc(x.Rows)
	og := out.grid()
	if TextbookExp() {
		parallel.For(x.Rows, func(i int) {
			cols, vals := x.RowNNZ(i)
			for t, k := range cols {
				mulAdd(wg.pk, og.row(i), wg.row(k), vals[t])
			}
		})
		return out
	}
	dotCSRMul(x, wg, og)
	return out
}

// checkAcc panics unless acc is the xCols-tall accumulator of products with g
// (what g.NewAcc(xCols) returns).
func checkAcc(op string, acc Matrix, xCols int, g Matrix) {
	if rows, _ := acc.Dims(); rows != xCols || !acc.SameLayout(g.NewAcc(0)) {
		gr, gc := g.Dims()
		ar, ac := acc.Dims()
		panic(fmt.Sprintf("hetensor: %s accumulator %d×%d@%d for %d feature columns and a %d×%d@%d operand",
			op, ar, ac, acc.AtScale(), xCols, gr, gc, g.AtScale()))
	}
}

// TransposeMulAcc accumulates ⟦Xᵀ·G⟧ into acc (from G.NewAcc(X.Cols)) and
// returns it: the gradient shape ∇W = Xᵀ⟦∇Z⟧. Because Xᵀ·G is the sum over
// row-chunks X[lo:hi]ᵀ·G[lo:hi], the streamed backward pass calls it once per
// received derivative chunk with the matching feature rows.
func TransposeMulAcc(acc Matrix, x *tensor.Dense, g Matrix) Matrix {
	gg := g.grid()
	if x.Rows != gg.rows {
		panic(fmt.Sprintf("hetensor: TransposeMulAcc outer dim mismatch %d×%d ᵀ· %d rows", x.Rows, x.Cols, gg.rows))
	}
	checkAcc("TransposeMulAcc", acc, x.Cols, g)
	ag := acc.grid()
	if TextbookExp() {
		// Parallel over output rows (columns of X): no write contention.
		parallel.For(x.Cols, func(k int) {
			for i := 0; i < x.Rows; i++ {
				mulAdd(gg.pk, ag.row(k), gg.row(i), x.At(i, k))
			}
		})
		return acc
	}
	exps, maxBits := denseColExps(x)
	dotProducts(gg.pk, tableSource{gg.id, orientCol}, gg.at, x.Rows, gg.per, exps, maxBits,
		func(k, t int, c *paillier.Ciphertext) { ag.set(k, t, gg.pk.AddCipher(ag.at(k, t), c)) })
	return acc
}

// TransposeMulCSRAcc accumulates ⟦X[lo:lo+G.rows]ᵀ·G⟧ into acc for sparse X
// and returns it: TransposeMulAcc for a row-chunk G, the chunk offset passed
// because a CSR matrix has no cheap row-slice view. With X's columns
// renumbered to the batch's touched set (tensor.CSR.CompactCols) it is the
// sparse layer's touched-row gradient.
func TransposeMulCSRAcc(acc Matrix, x *tensor.CSR, lo int, g Matrix) Matrix {
	gg := g.grid()
	if lo < 0 || lo+gg.rows > x.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulCSRAcc chunk [%d,%d) of %d rows", lo, lo+gg.rows, x.Rows))
	}
	checkAcc("TransposeMulCSRAcc", acc, x.Cols, g)
	ag := acc.grid()
	buckets := csrColumns(x, lo, gg.rows)
	if TextbookExp() {
		parallel.For(x.Cols, func(k int) {
			for t, i := range buckets[k].rows {
				mulAdd(gg.pk, ag.row(k), gg.row(i), buckets[k].vals[t])
			}
		})
		return acc
	}
	dotCSRTransposeAcc(buckets, gg, ag)
	return acc
}

// LookupRows gathers rows of an encrypted embedding table Q (vocab×dim, in
// one block when packed): the analogue of tensor.Lookup with Q encrypted.
// x is batch×fields; the result is batch×(fields·dim) in Q's lanes and one
// block per field, at Q's scale.
func LookupRows(q Matrix, x *tensor.IntMatrix) Matrix {
	vocab, dim := q.Dims()
	if !q.SameLayout(q.like(0, dim, dim, q.AtScale())) {
		panic("hetensor: LookupRows table must be packed with Block == Cols")
	}
	qg := q.grid()
	out := q.like(x.Rows, x.Cols*dim, dim, q.AtScale())
	og := out.grid()
	parallel.For(x.Rows, func(i int) {
		dst := og.row(i)
		for f, idx := range x.Row(i) {
			if idx < 0 || idx >= vocab {
				panic(fmt.Sprintf("hetensor: LookupRows index %d out of vocab %d", idx, vocab))
			}
			copy(dst[f*qg.per:(f+1)*qg.per], qg.row(idx))
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
func LookupBackwardRows(gradE Matrix, x *tensor.IntMatrix, vocab, dim int) Matrix {
	rows, cols := gradE.Dims()
	if rows != x.Rows || cols != x.Cols*dim || !gradE.SameLayout(gradE.like(0, cols, dim, gradE.AtScale())) {
		panic(fmt.Sprintf("hetensor: LookupBackwardRows of a %d×%d derivative for %d×%d indices of dim %d", rows, cols, x.Rows, x.Cols, dim))
	}
	out := gradE.like(vocab, dim, dim, gradE.AtScale())
	eg, og := gradE.grid(), out.grid()
	buckets := make([][]int, vocab) // table row → first ciphertext of each ∇E block scattered into it
	for i := 0; i < x.Rows; i++ {
		for f, idx := range x.Row(i) {
			buckets[idx] = append(buckets[idx], (i*x.Cols+f)*og.per)
		}
	}
	parallel.For(vocab, func(v int) {
		dst := og.row(v)
		for _, src := range buckets[v] {
			for k := range dst {
				dst[k] = eg.pk.AddCipher(dst[k], eg.c[src+k])
			}
		}
	})
	return out
}

// Add returns the homomorphic sum a + b of two matrices of one layout.
func Add(a, b Matrix) Matrix {
	ag, bg := a.grid(), b.grid()
	if ag.rows != bg.rows || !a.SameLayout(b) {
		panic(fmt.Sprintf("hetensor: Add of a %d-row %T and a %d-row %T of another layout", ag.rows, a, bg.rows, b))
	}
	rows, cols := a.Dims()
	out := a.like(rows, cols, 0, a.AtScale())
	og := out.grid()
	parallel.For(len(og.c), func(i int) {
		og.c[i] = ag.pk.AddCipher(ag.c[i], bg.c[i])
	})
	return out
}
