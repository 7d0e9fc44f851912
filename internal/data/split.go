package data

import "fmt"

// SplitCols re-partitions one party's numeric feature columns into k
// contiguous blocks for a k-party group (Algorithm 3): the first cols%k
// blocks are one column wider than the rest, so any dimensionality — even
// one not divisible by k — round-trips with every column assigned to
// exactly one party. Dense and sparse storage both split via column slices.
// Categorical fields are not split (the multi-party runtime covers the
// numeric source layers) and stay off the returned parts — except at k = 1,
// where nothing is split and the one block is the part itself.
func SplitCols(p Part, k int) []Part {
	if k == 1 {
		return []Part{p}
	}
	cols := p.NumCols()
	if k < 1 || k > cols {
		panic(fmt.Sprintf("data: cannot split %d feature columns across %d parties", cols, k))
	}
	base, rem := cols/k, cols%k
	out := make([]Part, k)
	lo := 0
	for i := range out {
		hi := lo + base
		if i < rem {
			hi++
		}
		if p.Dense != nil {
			out[i].Dense = p.Dense.SliceCols(lo, hi)
		}
		if p.Sparse != nil {
			out[i].Sparse = p.Sparse.SliceCols(lo, hi)
		}
		lo = hi
	}
	return out
}
