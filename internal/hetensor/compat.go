package hetensor

import "blindfl/internal/tensor"

// Names the frozen benchmark pins (benchmark/drive.go lists them) from when
// every kernel had a packed and an unpacked twin. They forward to the one
// kernel family and exist only so that the benchmark builds unchanged;
// nothing else in the tree may call them, and they go at the benchmark's
// next re-record.

func MulPlainLeft(x *tensor.Dense, w *CipherMatrix) *CipherMatrix {
	return MulLeft(x, w).(*CipherMatrix)
}
func MulPlainLeftPacked(x *tensor.Dense, w *PackedMatrix) *PackedMatrix {
	return MulLeft(x, w).(*PackedMatrix)
}
func MulPlainLeftCSR(x *tensor.CSR, w *CipherMatrix) *CipherMatrix {
	return MulLeftCSR(x, w).(*CipherMatrix)
}

func TransposeMulLeft(x *tensor.Dense, g *CipherMatrix) *CipherMatrix {
	return TransposeMulAcc(g.NewAcc(x.Cols), x, g).(*CipherMatrix)
}
func TransposeMulLeftPacked(x *tensor.Dense, g *PackedMatrix) *PackedMatrix {
	return TransposeMulAcc(g.NewAcc(x.Cols), x, g).(*PackedMatrix)
}

// TransposeMulLeftCSRSubset returns the rows touched[i] (sorted, covering
// every non-zero column of x) of ⟦Xᵀ·G⟧: the sparse layer's touched-row
// gradient.
func TransposeMulLeftCSRSubset(x *tensor.CSR, g *CipherMatrix, touched []int) *CipherMatrix {
	return TransposeMulCSRAcc(g.NewAcc(len(touched)), x.CompactCols(touched), 0, g).(*CipherMatrix)
}

func LookupPacked(q *PackedMatrix, x *tensor.IntMatrix) *PackedMatrix {
	return LookupRows(q, x).(*PackedMatrix)
}
func LookupBackward(gradE *CipherMatrix, x *tensor.IntMatrix, vocab, dim int) *CipherMatrix {
	return LookupBackwardRows(gradE, x, vocab, dim).(*CipherMatrix)
}
