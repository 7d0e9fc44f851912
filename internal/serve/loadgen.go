package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blindfl/internal/tensor"
)

// Closed-loop load generator: a fixed worker pool where every worker submits
// its next request as soon as the previous response lands. Concurrency ≥ the
// lane width keeps the batcher's lane groups full, which is exactly the
// regime cross-request batching is built for; the percentile latencies it
// reports are end-to-end (queueing + batching wait + protocol).

// LoadResult summarizes one load-generator run.
type LoadResult struct {
	Sent     int           // requests submitted
	OK       int           // responses with logits
	Shed     int           // ErrOverloaded responses
	Failed   int           // other errors
	Duration time.Duration // wall clock for the whole run

	// Latency percentiles over the OK responses.
	P50, P95, P99 time.Duration

	Throughput float64 // OK responses per second
}

// RunLoad fires total requests at the server from workers closed-loop
// clients. newReq(i) builds the i-th request (it runs on worker goroutines
// and must be safe for concurrent use).
func RunLoad(s *Server, newReq func(i int) Request, workers, total int) LoadResult {
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	lats := make([][]time.Duration, workers)
	var shed, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				resp := s.Predict(newReq(i))
				switch {
				case resp.Err == ErrOverloaded:
					shed.Add(1)
				case resp.Err != nil:
					failed.Add(1)
				default:
					lats[w] = append(lats[w], time.Since(t0))
				}
			}
		}()
	}
	wg.Wait()
	dur := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := LoadResult{
		Sent: total, OK: len(all),
		Shed: int(shed.Load()), Failed: int(failed.Load()),
		Duration: dur,
		P50:      percentile(all, 0.50),
		P95:      percentile(all, 0.95),
		P99:      percentile(all, 0.99),
	}
	if dur > 0 {
		res.Throughput = float64(res.OK) / dur.Seconds()
	}
	return res
}

// percentile returns the q-quantile of sorted latencies (nearest-rank: the
// ⌈q·n⌉-th smallest).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// RandomRequests builds a request factory drawing feature rows uniformly
// from a test split — the load generator's standing request source. rows[i]
// picks a row of each party's matrix (the same row across parties, so every
// request is a real aligned instance).
func RandomRequests(xAs []*tensor.Dense, xB *tensor.Dense, rows []int) func(i int) Request {
	return func(i int) Request {
		r := rows[i%len(rows)]
		req := Request{XAs: make([]*tensor.Dense, len(xAs)), XB: xB.RowSlice(r, r+1)}
		for j, x := range xAs {
			req.XAs[j] = x.RowSlice(r, r+1)
		}
		return req
	}
}
