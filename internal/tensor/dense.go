// Package tensor provides the dense and sparse matrix types used throughout
// BlindFL. Matrices are row-major float64. The package is deliberately small:
// it implements exactly the operations the federated protocols and the neural
// network library need — matmul (including transposed variants), elementwise
// arithmetic, and the embedding lookup pair lkup / lkup_bw.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major rows×cols float64 matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %d×%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice builds a rows×cols matrix backed by a copy of data.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %d×%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	d := NewDense(rows, cols)
	copy(d.Data, data)
	return d
}

// At returns the element at (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// RowSlice returns a view of rows [lo, hi): the slice shares d's backing
// array, so it costs nothing and writes through. Used by the chunk-streamed
// protocol paths to mask/encrypt/decrypt bounded row ranges.
func (d *Dense) RowSlice(lo, hi int) *Dense {
	if lo < 0 || hi < lo || hi > d.Rows {
		panic(fmt.Sprintf("tensor: RowSlice [%d,%d) of %d rows", lo, hi, d.Rows))
	}
	return &Dense{Rows: hi - lo, Cols: d.Cols, Data: d.Data[lo*d.Cols : hi*d.Cols]}
}

// Set writes the element at (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (d *Dense) Row(i int) []float64 { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.Rows, d.Cols)
	copy(out.Data, d.Data)
	return out
}

// Zero sets all elements to 0 in place.
func (d *Dense) Zero() {
	for i := range d.Data {
		d.Data[i] = 0
	}
}

// SameShape reports whether d and o have identical dimensions.
func (d *Dense) SameShape(o *Dense) bool { return d.Rows == o.Rows && d.Cols == o.Cols }

func (d *Dense) mustSameShape(o *Dense, op string) {
	if !d.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %d×%d vs %d×%d", op, d.Rows, d.Cols, o.Rows, o.Cols))
	}
}

// Add returns d + o as a new matrix.
func (d *Dense) Add(o *Dense) *Dense {
	d.mustSameShape(o, "Add")
	out := d.Clone()
	for i, v := range o.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns d − o as a new matrix.
func (d *Dense) Sub(o *Dense) *Dense {
	d.mustSameShape(o, "Sub")
	out := d.Clone()
	for i, v := range o.Data {
		out.Data[i] -= v
	}
	return out
}

// AddInPlace accumulates o into d.
func (d *Dense) AddInPlace(o *Dense) {
	d.mustSameShape(o, "AddInPlace")
	for i, v := range o.Data {
		d.Data[i] += v
	}
}

// SubInPlace subtracts o from d in place.
func (d *Dense) SubInPlace(o *Dense) {
	d.mustSameShape(o, "SubInPlace")
	for i, v := range o.Data {
		d.Data[i] -= v
	}
}

// Scale returns s·d as a new matrix.
func (d *Dense) Scale(s float64) *Dense {
	out := d.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Axpy performs d += s·o in place (the BLAS axpy idiom).
func (d *Dense) Axpy(s float64, o *Dense) {
	d.mustSameShape(o, "Axpy")
	for i, v := range o.Data {
		d.Data[i] += s * v
	}
}

// MatMul returns d·o (rows×cols · o.Rows×o.Cols).
func (d *Dense) MatMul(o *Dense) *Dense {
	if d.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %d×%d · %d×%d", d.Rows, d.Cols, o.Rows, o.Cols))
	}
	out := NewDense(d.Rows, o.Cols)
	for i := 0; i < d.Rows; i++ {
		drow := d.Row(i)
		orow := out.Row(i)
		for k, a := range drow {
			if a == 0 {
				continue
			}
			brow := o.Row(k)
			for j, b := range brow {
				orow[j] += a * b
			}
		}
	}
	return out
}

// TransposeMatMul returns dᵀ·o, computed without materializing dᵀ.
// d is rows×cols, o is rows×n; the result is cols×n. This is the
// ∇W = Xᵀ∇Z shape used in every backward pass.
func (d *Dense) TransposeMatMul(o *Dense) *Dense {
	if d.Rows != o.Rows {
		panic(fmt.Sprintf("tensor: TransposeMatMul outer dim mismatch %d×%d ᵀ· %d×%d", d.Rows, d.Cols, o.Rows, o.Cols))
	}
	out := NewDense(d.Cols, o.Cols)
	for i := 0; i < d.Rows; i++ {
		drow := d.Row(i)
		orow := o.Row(i)
		for k, a := range drow {
			if a == 0 {
				continue
			}
			dst := out.Row(k)
			for j, b := range orow {
				dst[j] += a * b
			}
		}
	}
	return out
}

// MatMulTranspose returns d·oᵀ. d is rows×cols, o is n×cols; result rows×n.
// This is the ∇E = ∇Z·Wᵀ shape of the embedding backward pass.
func (d *Dense) MatMulTranspose(o *Dense) *Dense {
	if d.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: MatMulTranspose inner dim mismatch %d×%d · %d×%dᵀ", d.Rows, d.Cols, o.Rows, o.Cols))
	}
	out := NewDense(d.Rows, o.Rows)
	for i := 0; i < d.Rows; i++ {
		drow := d.Row(i)
		orow := out.Row(i)
		for j := 0; j < o.Rows; j++ {
			brow := o.Row(j)
			var s float64
			for k, a := range drow {
				s += a * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// Transpose returns a new transposed copy.
func (d *Dense) Transpose() *Dense {
	out := NewDense(d.Cols, d.Rows)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			out.Set(j, i, d.At(i, j))
		}
	}
	return out
}

// Apply returns f applied elementwise as a new matrix.
func (d *Dense) Apply(f func(float64) float64) *Dense {
	out := NewDense(d.Rows, d.Cols)
	for i, v := range d.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Hadamard returns the elementwise product d ∘ o.
func (d *Dense) Hadamard(o *Dense) *Dense {
	d.mustSameShape(o, "Hadamard")
	out := NewDense(d.Rows, d.Cols)
	for i := range d.Data {
		out.Data[i] = d.Data[i] * o.Data[i]
	}
	return out
}

// MaxAbs returns max_i |d_i|, and 0 for an empty matrix.
func (d *Dense) MaxAbs() float64 {
	var m float64
	for _, v := range d.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Frobenius returns the Frobenius norm.
func (d *Dense) Frobenius() float64 {
	var s float64
	for _, v := range d.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports elementwise equality within tol.
func (d *Dense) Equal(o *Dense, tol float64) bool {
	if !d.SameShape(o) {
		return false
	}
	for i := range d.Data {
		if math.Abs(d.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// RandDense fills a rows×cols matrix with uniform values in [-scale, scale)
// drawn from rng.
func RandDense(rng *rand.Rand, rows, cols int, scale float64) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return d
}

// RandNormal fills a rows×cols matrix with N(0, std²) values drawn from rng.
func RandNormal(rng *rand.Rand, rows, cols int, std float64) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64() * std
	}
	return d
}

// HStack concatenates matrices horizontally. All inputs must share Rows.
func HStack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		panic("tensor: HStack of nothing")
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic("tensor: HStack row mismatch")
		}
		cols += m.Cols
	}
	out := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		dst := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(dst[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// SliceCols returns the column range [lo, hi) as a new matrix.
func (d *Dense) SliceCols(lo, hi int) *Dense {
	if lo < 0 || hi > d.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", lo, hi, d.Cols))
	}
	out := NewDense(d.Rows, hi-lo)
	for i := 0; i < d.Rows; i++ {
		copy(out.Row(i), d.Row(i)[lo:hi])
	}
	return out
}

// SliceRows returns the row range [lo, hi) as a new matrix.
func (d *Dense) SliceRows(lo, hi int) *Dense {
	if lo < 0 || hi > d.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", lo, hi, d.Rows))
	}
	out := NewDense(hi-lo, d.Cols)
	copy(out.Data, d.Data[lo*d.Cols:hi*d.Cols])
	return out
}

// GatherRows returns the matrix whose i-th row is d.Row(idx[i]).
func (d *Dense) GatherRows(idx []int) *Dense {
	out := NewDense(len(idx), d.Cols)
	for i, r := range idx {
		copy(out.Row(i), d.Row(r))
	}
	return out
}

// SumInOrder folds the non-nil matrices of parts left to right, in place
// into the first of them, and returns it (nil if there is none). Float
// addition is not associative, so a sum that must come out bit-identical
// however its terms were computed — concurrently, or in other processes —
// is folded by this one function in index order.
func SumInOrder(parts []*Dense) *Dense {
	var sum *Dense
	for _, p := range parts {
		if p == nil {
			continue
		}
		if sum == nil {
			sum = p
		} else {
			sum.AddInPlace(p)
		}
	}
	return sum
}

// WellFormed reports whether d is a rows×cols matrix of finite values whose
// backing slice has exactly rows·cols elements — the check for a matrix
// decoded from outside the program (a checkpoint file) before anything
// indexes it or fixed-point-encodes it. A nil d is not well formed.
func (d *Dense) WellFormed(rows, cols int) bool {
	if d == nil || d.Rows != rows || d.Cols != cols || rows < 0 || cols < 0 || len(d.Data) != rows*cols {
		return false
	}
	for _, v := range d.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
