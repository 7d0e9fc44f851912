// Package core implements BlindFL's federated source layers — the paper's
// primary contribution. A source layer unites the features of Party A and
// Party B into a single activation Z = X_A·W_A + X_B·W_B (MatMul, Sec. 5) or
// Z = E_A·W_A + E_B·W_B with E⋄ = lkup(Q⋄, X⋄) (Embed-MatMul, Sec. 6),
// without either party ever holding its own model weights, any forward
// activation, or any backward derivative in the clear.
//
// Each layer is split into a Party-A half and a Party-B half that exchange
// messages over a protocol.Peer. Weights are additively secret-shared
// (W⋄ = U⋄ + V⋄, Q⋄ = S⋄ + T⋄) with the pieces held by different parties,
// and encrypted copies of the pieces needed for homomorphic computation are
// exchanged at initialization and refreshed after every update, exactly as
// in the paper's Figures 6 and 7. Every ciphertext matrix crosses the link
// on the protocol package's one transfer path and is held as a
// hetensor.Matrix, so each layer has one body: how a matrix is packed and
// chunked is decided where it is encrypted (lanes, the sending Peer's
// producing send) and nowhere downstream.
package core

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
)

// Numeric abstracts the mini-batch feature matrix of one party for the
// MatMul source layer, so dense and sparse inputs share one protocol
// implementation. Sparse inputs skip zero entries in both the plaintext and
// the homomorphic matmuls — the source of BlindFL's Table 5 speedups. The
// encrypted operands are hetensor.Matrix values: whether they are packed is
// theirs to know, not the layer's.
type Numeric interface {
	// NumCols returns the feature dimensionality.
	NumCols() int
	// MatMul returns X·W for plaintext W.
	MatMul(w *tensor.Dense) *tensor.Dense
	// TransposeMatMul returns Xᵀ·G for plaintext G.
	TransposeMatMul(g *tensor.Dense) *tensor.Dense
	// MulCipher returns ⟦X·W⟧ for encrypted W.
	MulCipher(w *hetensor.Matrix) *hetensor.Matrix
	// TransposeMulCipherAcc accumulates ⟦X[lo:lo+g.Rows]ᵀ·G⟧ into acc (from
	// g.NewAcc) for a row-chunk G of the derivative arriving at row lo: the
	// unit of the backward pass, which folds each chunk in as it arrives.
	TransposeMulCipherAcc(acc *hetensor.Matrix, lo int, g *hetensor.Matrix)
}

// transposeMul returns ⟦Xᵀ·G⟧ for a derivative held in full.
func transposeMul(x Numeric, g *hetensor.Matrix) *hetensor.Matrix {
	acc := g.NewAcc(x.NumCols())
	x.TransposeMulCipherAcc(acc, 0, g)
	return acc
}

// DenseFeatures adapts a dense matrix to the Numeric interface.
type DenseFeatures struct{ M *tensor.Dense }

// NumCols returns the feature dimensionality.
func (f DenseFeatures) NumCols() int { return f.M.Cols }

// MatMul returns X·W.
func (f DenseFeatures) MatMul(w *tensor.Dense) *tensor.Dense { return f.M.MatMul(w) }

// TransposeMatMul returns Xᵀ·G.
func (f DenseFeatures) TransposeMatMul(g *tensor.Dense) *tensor.Dense {
	return f.M.TransposeMatMul(g)
}

// MulCipher returns ⟦X·W⟧.
func (f DenseFeatures) MulCipher(w *hetensor.Matrix) *hetensor.Matrix {
	return hetensor.MulLeft(f.M, w)
}

// TransposeMulCipherAcc accumulates a derivative row-chunk into acc.
func (f DenseFeatures) TransposeMulCipherAcc(acc *hetensor.Matrix, lo int, g *hetensor.Matrix) {
	hetensor.TransposeMulAcc(acc, f.M.RowSlice(lo, lo+g.Rows), g)
}

// SparseFeatures adapts a CSR matrix to the Numeric interface.
type SparseFeatures struct{ M *tensor.CSR }

// NumCols returns the feature dimensionality.
func (f SparseFeatures) NumCols() int { return f.M.Cols }

// MatMul returns X·W visiting only non-zeros.
func (f SparseFeatures) MatMul(w *tensor.Dense) *tensor.Dense { return f.M.MatMul(w) }

// TransposeMatMul returns Xᵀ·G visiting only non-zeros.
func (f SparseFeatures) TransposeMatMul(g *tensor.Dense) *tensor.Dense {
	return f.M.TransposeMatMul(g)
}

// MulCipher returns ⟦X·W⟧ visiting only non-zeros.
func (f SparseFeatures) MulCipher(w *hetensor.Matrix) *hetensor.Matrix {
	return hetensor.MulLeftCSR(f.M, w)
}

// TransposeMulCipherAcc accumulates a derivative row-chunk into acc,
// visiting only the chunk's non-zeros.
func (f SparseFeatures) TransposeMulCipherAcc(acc *hetensor.Matrix, lo int, g *hetensor.Matrix) {
	hetensor.TransposeMulCSRAcc(acc, f.M, lo, g)
}
