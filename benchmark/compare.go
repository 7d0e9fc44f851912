package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is what -compare says about one (metric, workload) pair.
type verdict string

const (
	same       verdict = "same"       // b is no worse than a by more than the bound
	worse      verdict = "worse"      // b is worse than a by more than the bound
	unresolved verdict = "unresolved" // a run's own spread is wider than the bound: the pair cannot be judged
)

// judge compares one end-to-end metric of two runs. delta is how much worse b
// is than a, as a share of a (negative when b is better); spread is the wider
// of the two runs' interquartile ranges as a share of their medians. setup_s
// gets an absolute slack on top of its relative bound.
func judge(d metricDef, a, b metricValue) (v verdict, delta, spread float64) {
	delta = ratio(b.Value-a.Value, a.Value)
	if d.Better == "higher" {
		delta = -delta
	}
	for _, m := range []metricValue{a, b} {
		if s := ratio(m.Q3-m.Q1, m.Value); s > spread {
			spread = s
		}
	}
	bound := d.Bound
	if d.Name == "setup_s" {
		bound += ratio(setupSlackS, a.Value)
	}
	switch {
	case spread > bound:
		return unresolved, delta, spread
	case delta > bound:
		return worse, delta, spread
	}
	return same, delta, spread
}

// compareFiles prints the verdict for every (end-to-end metric, workload)
// pair of two result files and returns the exit code: 1 if any pair is worse.
func compareFiles(pathA, pathB string) int {
	var files [2]suiteFile
	for i, p := range []string{pathA, pathB} {
		buf, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(buf, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p, err)
			return 2
		}
	}
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse by", "spread", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		ra, rb := files[0].find(w.Name, false), files[1].find(w.Name, false)
		if ra == nil || rb == nil {
			fmt.Printf("%-14s missing from one of the files\n", w.Name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			v, delta, spread := judge(d, ra.Metrics[d.Name], rb.Metrics[d.Name])
			fmt.Printf("%-14s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %6.2f  %s\n",
				w.Name, d.Name, ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value, 100*delta, 100*spread, d.Bound, v)
			if v == worse {
				code = 1
			}
		}
	}
	return code
}
