package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteFile is what the all-workloads run writes and -compare reads.
type suiteFile struct {
	Generator  string    `json:"generator"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Runs       []*result `json:"runs"` // per workload: the untraced run, then the traced one
}

func (f *suiteFile) find(workload string, trace bool) *result {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// runSuite runs every workload twice — untraced for the end-to-end metrics,
// traced for the per-layer ones — each run in a fresh child process, because
// blinding pools, the dot-table cache and the engine toggles are process-wide
// in the program today and one workload must not inherit another's. It then
// checks the orderings that span runs, and returns the exit code.
func runSuite(seed int64, seconds float64, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	file := &suiteFile{Generator: "go run ./benchmark", GoMaxProcs: goMaxProcs, Seed: seed, Seconds: seconds}
	var problems []string
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			tmp := filepath.Join(filepath.Dir(out), fmt.Sprintf(".%s.%d.json", w.Name, trace))
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "-result", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run() // waits for the child to end
			res, err := readResult(tmp)
			_ = os.Remove(tmp) // a leftover temp file is harmless and ignored by .gitignore
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s trace %d: no result (%v, %v)", w.Name, trace, runErr, err))
				continue
			}
			file.Runs = append(file.Runs, res)
			if !res.Correct {
				problems = append(problems, fmt.Sprintf("%s trace %d: %d of %d operations failed", w.Name, trace, res.Failed, res.Attempted))
			}
			problems = append(problems, failedAssertions(res)...)
		}
	}
	for _, a := range crossRunAssertions(file) {
		fmt.Printf("assert %s %-34s %s\n", map[bool]string{true: "ok  ", false: "FAIL"}[a.OK], a.Name, a.Detail)
		if !a.OK {
			problems = append(problems, a.Name+": "+a.Detail)
		}
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Print(summary(file))
	fmt.Printf("results written to %s\n", out)
	for _, p := range problems {
		fmt.Println("PROBLEM", p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}

func readResult(path string) (*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(buf, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// crossRunAssertions are the orderings no single run can check. Every engine
// configuration here computes the same function, so a pair ordered the wrong
// way is a bug in the system or in the harness.
func crossRunAssertions(f *suiteFile) []assertion {
	var out []assertion
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, assertion{name, ok, fmt.Sprintf(format, args...)})
	}
	if b, s := f.find("serve_batched", false), f.find("serve_single", false); b != nil && s != nil {
		bv, sv := b.Metrics["samples_per_s"].Value, s.Metrics["samples_per_s"].Value
		add("batched_at_least_single", bv >= sv, "serve_batched %.1f requests/s, serve_single %.1f", bv, sv)
	}
	for _, w := range workloads {
		u, t := f.find(w.Name, false), f.find(w.Name, true)
		if u == nil || t == nil {
			continue
		}
		if w.Name == "dense_2048" {
			// The ratio is taken inside the traced run, between interleaved
			// traced and untraced steps — two runs minutes apart differ by
			// more than 5% on a shared host with no tracing at all — and is
			// allowed two of its own standard errors.
			over, se := t.Metrics["bench.tracing_overhead"].Value, t.OverheadSE
			add("tracing_overhead_within_5pct/"+w.Name, over-2*se <= 1.05,
				"overhead %.3f ± %.3f: tracing from outside must stay cheap on the step it explains", over, se)
		}
		if !w.Serve {
			same, n := true, 0
			for ; n < len(u.Losses) && n < len(t.Losses); n++ {
				same = same && u.Losses[n] == t.Losses[n]
			}
			add("traced_losses_bit_exact/"+w.Name, same && n > 0, "%d shared steps compared bit for bit", n)
		}
	}
	return out
}

// summary prints every end-to-end metric of every workload by name, with its
// unit and bound, and the operation counts.
func summary(f *suiteFile) string {
	s := fmt.Sprintf("\n%-14s %-16s %12s %-5s %10s %10s %4s %6s\n", "workload", "metric", "median", "unit", "q1", "q3", "n", "bound")
	for _, w := range workloads {
		r := f.find(w.Name, false)
		if r == nil {
			continue
		}
		for _, d := range endToEnd {
			m := r.Metrics[d.Name]
			s += fmt.Sprintf("%-14s %-16s %12.4f %-5s %10.4f %10.4f %4d %6.2f\n", w.Name, d.Name, m.Value, d.Unit, m.Q1, m.Q3, m.N, d.Bound)
		}
		noisy := ""
		if r.Noisy {
			noisy = "  noisy"
		}
		s += fmt.Sprintf("%-14s ops_attempted %d ops_failed %d%s\n", w.Name, r.Attempted, r.Failed, noisy)
	}
	return s
}
