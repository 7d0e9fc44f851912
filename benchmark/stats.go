package main

import (
	"math"
	"sort"
	"time"
)

// segments is how many equal parts of the measured window each end-to-end
// metric is computed on; the reported value is the median of the parts, so one
// slow stretch (a noisy neighbour, a GC cycle) moves one part, not the result.
const segments = 5

// p99MinSamples is the fewest latency samples a run may have and still print
// a p99: 2000 leaves 20 samples beyond it. A shorter run reports the
// percentile as refused (0) instead of repeating its p95.
const p99MinSamples = 2000

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule of Python's statistics.quantiles(xs, n=4) — the rule the PR driver
// judges spreads with — so a spread printed here is the spread it will see.
// Fewer than two values have no spread: all three are the value itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// exclusive method: position k(n+1)/4 on the 1-based order statistics
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j // taken after clamping, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// medianSE estimates the standard error of a sample's median from its own
// spread: 1.2533·σ/√n, with σ taken robustly as IQR/1.349.
func medianSE(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return 1.2533 * (q3 - q1) / 1.349 / math.Sqrt(float64(len(xs)))
}

// medianRatio returns median(num)/median(den) and the ratio's standard error.
func medianRatio(num, den []float64) (r, se float64) {
	mn, md := median(num), median(den)
	r = mn / md
	return r, r * math.Hypot(medianSE(num)/mn, medianSE(den)/md)
}

// percentile is the nearest-rank q-quantile of an ascending slice.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(asc)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(asc) {
		rank = len(asc) - 1
	}
	return asc[rank]
}

// p99 returns the 99th percentile of the samples, or ok=false when there are
// too few to have 20 samples beyond it.
func p99(samples []float64) (v float64, ok bool) {
	if len(samples) < p99MinSamples {
		return 0, false
	}
	return percentile(sorted(samples), 0.99), true
}

// op is one measured operation: a federated step or a served request.
type op struct {
	Start, End time.Duration // since the tracer's epoch
	Units      float64       // samples the operation processed
	Traced     bool          // spans were being recorded while it ran
}

// opMs returns the operations' durations in ms.
func opMs(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = (o.End - o.Start).Seconds() * 1e3
	}
	return out
}

// tracedMs splits the operations' durations by whether tracing was on.
func tracedMs(ops []op) (traced, untraced []float64) {
	for _, o := range ops {
		ms := (o.End - o.Start).Seconds() * 1e3
		if o.Traced {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	return traced, untraced
}

// windowStats splits the operations, in completion order, into equal
// segments and returns per segment the throughput (units per second of the
// wall clock the segment covers) and the median operation latency in ms.
// A segment's wall clock runs from the previous segment's last completion (the
// window start for the first) to its own last completion, so segments tile
// the window and concurrent operations are not double counted.
func windowStats(ops []op, windowStart time.Duration, parts int) (perSec, latMs []float64) {
	byEnd := append([]op(nil), ops...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
	if parts > len(byEnd) {
		parts = len(byEnd)
	}
	prev := windowStart
	for k := 0; k < parts; k++ {
		seg := byEnd[k*len(byEnd)/parts : (k+1)*len(byEnd)/parts]
		units := 0.0
		for _, o := range seg {
			units += o.Units
		}
		end := seg[len(seg)-1].End
		perSec = append(perSec, units/(end-prev).Seconds())
		latMs = append(latMs, median(opMs(seg)))
		prev = end
	}
	return perSec, latMs
}

// timeCalls runs fn until it has `want` timings or the budget is spent, but
// never fewer than `least`, and returns the per-call times in seconds. prep,
// if set, runs before every call and is not timed.
func timeCalls(fn, prep func(), want, least int, budget time.Duration) []float64 {
	deadline := time.Now().Add(budget)
	var out []float64
	for len(out) < want && (len(out) < least || time.Now().Before(deadline)) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}
