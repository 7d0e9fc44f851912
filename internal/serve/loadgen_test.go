package serve

import (
	"testing"
	"time"
)

// TestPercentileNearestRank: percentile returns the ⌈q·n⌉-th smallest
// latency. The n = 100 rows have exact products, where a rounding error
// above the integer would pick the next rank.
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		rank int // 1-based
	}{
		{1, 0.5, 1}, {1, 0.95, 1}, {1, 0.99, 1},
		{2, 0.5, 1}, {2, 0.95, 2}, {2, 0.99, 2},
		{31, 0.5, 16}, {31, 0.95, 30}, {31, 0.99, 31},
		{100, 0.5, 50}, {100, 0.95, 95}, {100, 0.99, 99},
	}
	for _, c := range cases {
		sorted := make([]time.Duration, c.n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		if got := percentile(sorted, c.q); got != time.Duration(c.rank) {
			t.Errorf("n=%d q=%v: got rank %d, want %d", c.n, c.q, got, c.rank)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
}
