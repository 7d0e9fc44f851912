package hetensor

import (
	"sync/atomic"

	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// Exponentiation engine dispatch. Every plaintext·ciphertext matmul in this
// package is a grid of encrypted dot products Π cᵢ^{kᵢ}; the engine paths
// below evaluate them with paillier's signed small-exponent and Straus
// multi-exponentiation kernels (signed-magnitude scalars, shared squaring
// chains, window tables reused across batch rows) instead of one full-width
// MulPlain per term. Results decrypt identically to the textbook paths; the
// toggle keeps the classic implementation in the binary as the reference the
// equivalence tests compare the engine against. No run option sets it.

// textbookExp selects the pre-engine full-width MulPlain paths when true.
// Process-wide: in-process federated parties share one setting.
var textbookExp atomic.Bool

// SetTextbook switches every hetensor matmul between the textbook
// exponentiation paths (true) and the signed/Straus engine (false, the
// default). It returns the previous setting so tests can restore it.
func SetTextbook(v bool) bool { return textbookExp.Swap(v) }

// TextbookExp reports whether the textbook exponentiation paths are active.
func TextbookExp() bool { return textbookExp.Load() }

// maxDotTableEntries caps the total number of precomputed window-table
// residues one kernel invocation may hold (40 MiB at a 1024-bit N: a residue
// is a digit pair, 2·16 words and two big.Int headers — 320 bytes).
// Beyond it the kernels fall back to per-cell DotRow, which builds tables
// per evaluation but only for the live bases, and only the side each needs.
const maxDotTableEntries = 1 << 17

// encodeSignedVec encodes a plaintext vector at scale 1 into signed-magnitude
// exponents, returning the largest magnitude bit length alongside.
func encodeSignedVec(vals []float64) ([]paillier.SignedExp, int) {
	es := make([]paillier.SignedExp, len(vals))
	maxBits := 0
	for i, v := range vals {
		if v == 0 {
			continue
		}
		mag, neg := Codec.EncodeSigned(v, 1)
		es[i] = paillier.SignedExp{Mag: mag, Neg: neg}
		if bl := mag.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	return es, maxBits
}

// dotProducts evaluates the encrypted dot-product grid
//
//	res[r][g] = Π_k base(k, g) ^ exps[r][k],  k = 0..inner−1,
//
// emitting each cell via emit(r, g, c). One set of window tables over all
// gpr base vectors is shared by every exponent vector (each batch row of a
// matmul hits the same weight column): from the persistent cache when the
// base matrix has been seen before (cachedTables), else built for this call
// at the per-call window, narrowed until the tables fit the memory cap. Only
// when no window fits does each cell run a standalone DotRow. emit is called
// from one goroutine per r, so writes keyed by r need no locking.
func dotProducts(pk *paillier.PublicKey, src tableSource, base func(k, g int) *paillier.Ciphertext,
	inner, gpr int, exps [][]paillier.SignedExp, maxBits int,
	emit func(r, g int, c *paillier.Ciphertext)) {
	if inner == 0 || len(exps) == 0 || gpr == 0 {
		return
	}
	// Drop inner indices whose exponent is zero in every row (all-zero
	// feature columns, padding): they would otherwise cost full window
	// tables per group and count toward the memory cap for nothing.
	live := make([]int, 0, inner)
	for k := 0; k < inner; k++ {
		for r := range exps {
			if !exps[r][k].IsZero() {
				live = append(live, k)
				break
			}
		}
	}
	if len(live) == 0 {
		return
	}
	rowExps := exps
	if len(live) < inner {
		rowExps = make([][]paillier.SignedExp, len(exps))
		for r := range exps {
			fe := make([]paillier.SignedExp, len(live))
			for t, k := range live {
				fe[t] = exps[r][k]
			}
			rowExps[r] = fe
		}
	}
	tabs := cachedTables(pk, src, live, gpr, maxBits, base)
	if tabs == nil {
		// A narrower shared table still amortizes across all rows, which
		// beats rebuilding per-cell tables in the DotRow fallback.
		win := paillier.DotWindow(maxBits, len(exps))
		for win > 0 && 2*len(live)*gpr*((1<<win)-1) > maxDotTableEntries {
			win--
		}
		if win > 0 {
			tabs = buildTables(pk, live, gpr, win, base)
		}
	}
	if tabs != nil {
		parallel.For(len(exps), func(r int) {
			for g := 0; g < gpr; g++ {
				emit(r, g, tabs.DotGroup(g, rowExps[r]))
			}
		})
		return
	}
	parallel.For(len(exps), func(r int) {
		col := make([]*paillier.Ciphertext, len(live))
		for g := 0; g < gpr; g++ {
			for t, k := range live {
				col[t] = base(k, g)
			}
			emit(r, g, pk.DotRow(col, rowExps[r]))
		}
	})
}

// buildTables builds one DotTables over the live bases of all gpr base
// vectors laid end to end, so the build spreads over every (group, base)
// pair however few groups a row has.
func buildTables(pk *paillier.PublicKey, live []int, gpr int, w uint,
	base func(k, g int) *paillier.Ciphertext) *paillier.DotTables {
	cs := make([]*paillier.Ciphertext, 0, gpr*len(live))
	for g := 0; g < gpr; g++ {
		for _, k := range live {
			cs = append(cs, base(k, g))
		}
	}
	return pk.PrecomputeDot(cs, w)
}

// denseRowExps encodes every row of x at scale 1.
func denseRowExps(x *tensor.Dense) ([][]paillier.SignedExp, int) {
	exps := make([][]paillier.SignedExp, x.Rows)
	maxBits := 0
	for i := range exps {
		var b int
		exps[i], b = encodeSignedVec(x.Row(i))
		if b > maxBits {
			maxBits = b
		}
	}
	return exps, maxBits
}

// denseColExps encodes every column of x at scale 1 (the transpose layout).
func denseColExps(x *tensor.Dense) ([][]paillier.SignedExp, int) {
	exps := make([][]paillier.SignedExp, x.Cols)
	maxBits := 0
	col := make([]float64, x.Rows)
	for k := range exps {
		for i := 0; i < x.Rows; i++ {
			col[i] = x.At(i, k)
		}
		var b int
		exps[k], b = encodeSignedVec(col)
		if b > maxBits {
			maxBits = b
		}
	}
	return exps, maxBits
}

// dotCSRMul sets out[i][g] to the product over the stored non-zeros of x's
// row i of w[k][g]^x[i][k]: MulLeftCSR's engine path. Rows with no non-zeros
// keep out's identity cells.
func dotCSRMul(x *tensor.CSR, w, out *Matrix) {
	parallel.For(x.Rows, func(i int) {
		cols, vals := x.RowNNZ(i)
		if len(cols) == 0 {
			return
		}
		exps, _ := encodeSignedVec(vals)
		bases := make([]*paillier.Ciphertext, len(cols))
		orow := out.Row(i)
		for g := range orow {
			for t, k := range cols {
				bases[t] = w.at(k, g)
			}
			orow[g] = w.PK.DotRow(bases, exps)
		}
	})
}

// csrColumn is one feature column's non-zeros in a row range of a CSR
// matrix: the rows (relative to the range) and their values, in row order.
type csrColumn struct {
	rows []int
	vals []float64
}

// csrColumns buckets the non-zeros of x's rows [lo, lo+n) by feature column,
// so that each row of a transpose product is owned by one goroutine.
func csrColumns(x *tensor.CSR, lo, n int) []csrColumn {
	cols := make([]csrColumn, x.Cols)
	for i := 0; i < n; i++ {
		ks, vals := x.RowNNZ(lo + i)
		for t, k := range ks {
			cols[k].rows = append(cols[k].rows, i)
			cols[k].vals = append(cols[k].vals, vals[t])
		}
	}
	return cols
}

// dotCSRTransposeAcc accumulates acc[k][g] ·= Π_i g[i][g]^x[i][k] over the
// bucketed non-zeros of each feature column k: TransposeMulCSRAcc's engine
// path.
func dotCSRTransposeAcc(cols []csrColumn, g, acc *Matrix) {
	parallel.For(len(cols), func(k int) {
		col := cols[k]
		if len(col.rows) == 0 {
			return
		}
		exps, _ := encodeSignedVec(col.vals)
		bases := make([]*paillier.Ciphertext, len(col.rows))
		orow := acc.Row(k)
		for j := range orow {
			for t, i := range col.rows {
				bases[t] = g.at(i, j)
			}
			orow[j] = g.PK.AddCipher(orow[j], g.PK.DotRow(bases, exps))
		}
	})
}
