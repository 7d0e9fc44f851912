package tensor

import (
	"fmt"
	"math/rand"
	"sort"
)

// CSR is a compressed sparse row matrix. RowPtr has Rows+1 entries; the
// non-zeros of row i are ColIdx[RowPtr[i]:RowPtr[i+1]] with values
// Val[RowPtr[i]:RowPtr[i+1]], column indices strictly increasing within a row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NewCSR builds an empty CSR with capacity hint nnz.
func NewCSR(rows, cols, nnz int) *CSR {
	return &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, 1, rows+1),
		ColIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
}

// AppendRow adds the next row given parallel column/value slices. Columns
// need not be sorted; they are sorted here. Rows must be appended in order.
func (c *CSR) AppendRow(cols []int, vals []float64) {
	if len(cols) != len(vals) {
		panic("tensor: AppendRow len mismatch")
	}
	if len(c.RowPtr) > c.Rows {
		panic("tensor: AppendRow past declared Rows")
	}
	type cv struct {
		c int
		v float64
	}
	pairs := make([]cv, len(cols))
	for i := range cols {
		if cols[i] < 0 || cols[i] >= c.Cols {
			panic(fmt.Sprintf("tensor: AppendRow col %d out of range [0,%d)", cols[i], c.Cols))
		}
		pairs[i] = cv{cols[i], vals[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].c < pairs[j].c })
	for _, p := range pairs {
		c.ColIdx = append(c.ColIdx, p.c)
		c.Val = append(c.Val, p.v)
	}
	c.RowPtr = append(c.RowPtr, len(c.ColIdx))
}

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.Val) }

// RowNNZ returns the column indices and values of row i as views.
func (c *CSR) RowNNZ(i int) ([]int, []float64) {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	return c.ColIdx[lo:hi], c.Val[lo:hi]
}

// ToDense materializes the matrix.
func (c *CSR) ToDense() *Dense {
	d := NewDense(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		cols, vals := c.RowNNZ(i)
		row := d.Row(i)
		for k, j := range cols {
			row[j] = vals[k]
		}
	}
	return d
}

// DenseToCSR sparsifies a dense matrix, keeping entries with |v| > 0.
func DenseToCSR(d *Dense) *CSR {
	c := NewCSR(d.Rows, d.Cols, 0)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		var cols []int
		var vals []float64
		for j, v := range row {
			if v != 0 {
				cols = append(cols, j)
				vals = append(vals, v)
			}
		}
		c.AppendRow(cols, vals)
	}
	return c
}

// MatMul returns c·w where w is dense cols×n. Only non-zeros are visited.
func (c *CSR) MatMul(w *Dense) *Dense {
	if c.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: CSR MatMul inner dim mismatch %d×%d · %d×%d", c.Rows, c.Cols, w.Rows, w.Cols))
	}
	out := NewDense(c.Rows, w.Cols)
	for i := 0; i < c.Rows; i++ {
		cols, vals := c.RowNNZ(i)
		orow := out.Row(i)
		for k, j := range cols {
			a := vals[k]
			wrow := w.Row(j)
			for t, b := range wrow {
				orow[t] += a * b
			}
		}
	}
	return out
}

// TransposeMatMul returns cᵀ·g where g is dense rows×n; result cols×n.
// Used for the sparse gradient ∇W = Xᵀ∇Z.
func (c *CSR) TransposeMatMul(g *Dense) *Dense {
	if c.Rows != g.Rows {
		panic(fmt.Sprintf("tensor: CSR TransposeMatMul outer dim mismatch %d×%d ᵀ· %d×%d", c.Rows, c.Cols, g.Rows, g.Cols))
	}
	out := NewDense(c.Cols, g.Cols)
	for i := 0; i < c.Rows; i++ {
		cols, vals := c.RowNNZ(i)
		grow := g.Row(i)
		for k, j := range cols {
			a := vals[k]
			dst := out.Row(j)
			for t, b := range grow {
				dst[t] += a * b
			}
		}
	}
	return out
}

// SliceRows returns rows [lo, hi) as a new CSR.
func (c *CSR) SliceRows(lo, hi int) *CSR {
	if lo < 0 || hi > c.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: CSR SliceRows [%d,%d) of %d rows", lo, hi, c.Rows))
	}
	out := NewCSR(hi-lo, c.Cols, c.RowPtr[hi]-c.RowPtr[lo])
	for i := lo; i < hi; i++ {
		cols, vals := c.RowNNZ(i)
		out.AppendRow(cols, vals)
	}
	return out
}

// GatherRows returns the CSR whose i-th row is row idx[i] of c.
func (c *CSR) GatherRows(idx []int) *CSR {
	out := NewCSR(len(idx), c.Cols, 0)
	for _, r := range idx {
		cols, vals := c.RowNNZ(r)
		out.AppendRow(cols, vals)
	}
	return out
}

// SliceCols returns the column range [lo, hi) as a new CSR with Cols = hi−lo.
func (c *CSR) SliceCols(lo, hi int) *CSR {
	if lo < 0 || hi > c.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: CSR SliceCols [%d,%d) of %d cols", lo, hi, c.Cols))
	}
	out := NewCSR(c.Rows, hi-lo, 0)
	for i := 0; i < c.Rows; i++ {
		cols, vals := c.RowNNZ(i)
		var nc []int
		var nv []float64
		for k, j := range cols {
			if j >= lo && j < hi {
				nc = append(nc, j-lo)
				nv = append(nv, vals[k])
			}
		}
		out.AppendRow(nc, nv)
	}
	return out
}

// CompactCols renumbers c's columns by their position in cols, which must be
// sorted and hold every column c stores a non-zero in: the matrix over those
// columns only, sharing c's row pointers and values (rows keep their column
// order). A stored column missing from cols panics.
func (c *CSR) CompactCols(cols []int) *CSR {
	idx := make([]int, len(c.ColIdx))
	for t, k := range c.ColIdx {
		j := sort.SearchInts(cols, k)
		if j == len(cols) || cols[j] != k {
			panic(fmt.Sprintf("tensor: CSR column %d not in the compacted set", k))
		}
		idx[t] = j
	}
	return &CSR{Rows: c.Rows, Cols: len(cols), RowPtr: c.RowPtr, ColIdx: idx, Val: c.Val}
}

// Sparsity returns the fraction of zero entries.
func (c *CSR) Sparsity() float64 {
	total := c.Rows * c.Cols
	if total == 0 {
		return 0
	}
	return 1 - float64(c.NNZ())/float64(total)
}

// RandCSR generates a random rows×cols CSR with approximately nnzPerRow
// non-zeros per row, values uniform in [-1, 1).
func RandCSR(rng *rand.Rand, rows, cols, nnzPerRow int) *CSR {
	if nnzPerRow > cols {
		nnzPerRow = cols
	}
	c := NewCSR(rows, cols, rows*nnzPerRow)
	for i := 0; i < rows; i++ {
		seen := make(map[int]bool, nnzPerRow)
		jcols := make([]int, 0, nnzPerRow)
		vals := make([]float64, 0, nnzPerRow)
		for len(jcols) < nnzPerRow {
			j := rng.Intn(cols)
			if seen[j] {
				continue
			}
			seen[j] = true
			jcols = append(jcols, j)
			vals = append(vals, rng.Float64()*2-1)
		}
		c.AppendRow(jcols, vals)
	}
	return c
}
