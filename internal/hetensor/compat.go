package hetensor

import (
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// Names the frozen benchmark pins (benchmark/drive.go lists them) from when
// there were two matrix types and every kernel had a packed and an unpacked
// twin. They forward to the one Matrix and the one kernel family and exist
// only so that the benchmark builds unchanged; nothing else in the tree may
// call them, and they go at the benchmark's next re-record.

// CipherMatrix is only the shape of the benchmark's literal: drive.go fills
// one field by field and hands it to MulPlainLeftCSR, which reads it as a
// one-lane Matrix sharing its cells. Nothing in the tree builds, sends or
// receives one.
type CipherMatrix struct {
	Rows, Cols int
	Scale      uint
	PK         *paillier.PublicKey
	C          []*paillier.Ciphertext
}

func MulPlainLeft(x *tensor.Dense, w *Matrix) *Matrix       { return MulLeft(x, w) }
func MulPlainLeftPacked(x *tensor.Dense, w *Matrix) *Matrix { return MulLeft(x, w) }
func MulPlainLeftCSR(x *tensor.CSR, w *CipherMatrix) *Matrix {
	lc := wholeFor(w.PK)
	return MulLeftCSR(x, &Matrix{Rows: w.Rows, Cols: w.Cols, Block: 1, Scale: w.Scale, W: lc.W, K: 1, PK: w.PK, C: w.C})
}

func TransposeMulLeft(x *tensor.Dense, g *Matrix) *Matrix {
	return TransposeMulAcc(g.NewAcc(x.Cols), x, g)
}
func TransposeMulLeftPacked(x *tensor.Dense, g *Matrix) *Matrix {
	return TransposeMulAcc(g.NewAcc(x.Cols), x, g)
}

// TransposeMulLeftCSRSubset returns the rows touched[i] (sorted, covering
// every non-zero column of x) of ⟦Xᵀ·G⟧: the sparse layer's touched-row
// gradient.
func TransposeMulLeftCSRSubset(x *tensor.CSR, g *Matrix, touched []int) *Matrix {
	return TransposeMulCSRAcc(g.NewAcc(len(touched)), x.CompactCols(touched), 0, g)
}

func LookupPacked(q *Matrix, x *tensor.IntMatrix) *Matrix { return LookupRows(q, x) }
func LookupBackward(gradE *Matrix, x *tensor.IntMatrix, vocab, dim int) *Matrix {
	return LookupBackwardRows(gradE, x, vocab, dim)
}

func DecryptPacked(sk *paillier.PrivateKey, m *Matrix) *tensor.Dense { return Decrypt(sk, m) }
