package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// reduced shrinks a workload to test scale: the program's 512-bit test keys
// (through runOpts.Keys), small shapes, a fast link. The code paths — model
// family, layer, transport, serve batcher — stay the workload's own.
func reduced(w workload) workload {
	w.KeyBits = 512
	w.TrainRows, w.Warmup = 64, 1
	switch {
	case w.Serve:
		w.Warmup = 8
		if w.Clients > 8 {
			w.Clients = 8 // 512-bit keys pack 4 lanes: 2 × lanes clients, as at full scale
		}
	case w.Model == "mlp":
		w.Batch, w.Hidden = 8, 4
	case w.Model == "wdl":
		w.Batch, w.Hidden, w.Feats, w.AvgNNZ, w.CatVocab, w.EmbDim = 4, 4, 16, 4, 8, 4
	default:
		w.Batch, w.Feats, w.AvgNNZ, w.LatencyMs = 8, 200, 8, 5
	}
	return w
}

func reducedOpts(w workload, trace bool, dir string) runOpts {
	o := runOpts{Seed: 7, Seconds: 1, Trace: trace, Setups: 1, MaxOps: 4, Keys: testKeys, Replays: 2}
	if w.Serve {
		o.MaxOps = 400 // long enough for the tracer to toggle a few times
	}
	if trace {
		o.TraceOut = filepath.Join(dir, w.Name+".trace.json")
	}
	return o
}

// TestWorkloadsEndToEnd runs every workload, untraced and traced, at reduced
// scale: outputs must check out, every declared metric must be reported, the
// span arithmetic must close, and the contract line must have exactly the
// driver's keys.
func TestWorkloadsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for _, full := range workloads {
		w := reduced(full)
		for _, trace := range []bool{false, true} {
			res := runWorkload(w, reducedOpts(w, trace, dir))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v", w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(contractLine(res)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: contract line: %v", w.Name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: contract line %s", w.Name, trace, contractLine(res))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s missing or malformed", w.Name, trace, d.Name)
				}
				if !trace && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, *m.Value)
				}
			}
			if !trace {
				continue
			}
			// Timing orderings are not asserted at this scale; the ones
			// that follow from the harness's own arithmetic are.
			for _, a := range res.Assertions {
				if strings.HasPrefix(a.Name, "busy_plus_blocked") && !a.OK {
					t.Errorf("%s: %s: %s", w.Name, a.Name, a.Detail)
				}
			}
			if !w.Serve && res.Metrics["model.step_b_busy_ms"].N == 0 {
				t.Errorf("%s: no StepB span was recorded", w.Name)
			}
			if w.Serve && res.Metrics["serve.predict_batch_ms"].Value <= 0 {
				t.Errorf("%s: PredictBatch was not replayed", w.Name)
			}
			if w.LatencyMs > 0 && res.Metrics["transport.wire_share"].N == 0 {
				t.Errorf("%s: the pair replay did not run", w.Name)
			}
			if res.Breakdown == nil {
				t.Errorf("%s: no estimated breakdown", w.Name)
			}
		}
	}
}

// TestGoldenMismatchFails corrupts one step of the golden comparison and one
// of the reference comparison: each must count as a failed operation.
func TestGoldenMismatchFails(t *testing.T) {
	w, _ := findWorkload("dense_2048")
	want, err := readGolden(w.Name)
	if err != nil || len(want) != goldenSteps {
		t.Fatalf("golden file: %d steps, %v", len(want), err)
	}
	o := defaultOpts(1, 1, false)
	clean := &result{Losses: append([]float64(nil), want[:8]...)}
	checkLosses(w, o, clean)
	if clean.Failed != 0 {
		t.Fatalf("golden losses fail their own check: %v", clean.Errors)
	}
	for _, step := range []int{1, 6} { // inside and beyond the reference replay
		bad := &result{Losses: append([]float64(nil), want[:8]...)}
		bad.Losses[step] += 1e-6
		checkLosses(w, o, bad)
		if bad.Failed == 0 {
			t.Errorf("a loss off by 1e-6 at step %d passed the check", step)
		}
	}
	nan := &result{Losses: []float64{want[0], math.NaN()}}
	checkLosses(w, runOpts{Seed: 2}, nan)
	if nan.Failed == 0 {
		t.Error("a NaN loss passed the check")
	}
}

func TestFixtureKeysAreDeterministic(t *testing.T) {
	a, err := fixtureKeys(512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fixtureKeys(512)
	if err != nil {
		t.Fatal(err)
	}
	if a.A.N.Cmp(b.A.N) != 0 || a.B.N.Cmp(b.B.N) != 0 || a.A.N.Cmp(a.B.N) == 0 {
		t.Fatal("fixture keys must repeat exactly, and differ between the parties")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{3}); q1 != 3 || med != 3 || q3 != 3 {
		t.Errorf("one sample: got %v %v %v", q1, med, q3)
	}
}

func TestP99NeedsTwoThousandSamples(t *testing.T) {
	xs := make([]float64, p99MinSamples-1)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := p99(xs); ok {
		t.Error("p99 printed from too few samples")
	}
	xs = append(xs, float64(len(xs)+1))
	if v, ok := p99(xs); !ok || v != 1980 {
		t.Errorf("p99 of 1..2000 = %v, %v; want 1980", v, ok)
	}
}

func TestWindowStatsSegments(t *testing.T) {
	// Ten sequential 1 s operations of 4 units, then one slow 6 s one: five
	// segments, four at 4 units/s and one dragged down, median unmoved.
	var ops []op
	at := 10 * time.Second
	for i := 0; i < 9; i++ {
		ops = append(ops, op{Start: at, End: at + time.Second, Units: 4})
		at += time.Second
	}
	ops = append(ops, op{Start: at, End: at + 6*time.Second, Units: 4})
	perSec, lat := windowStats(ops, 10*time.Second, segments)
	if len(perSec) != segments || len(lat) != segments {
		t.Fatalf("got %d and %d segments", len(perSec), len(lat))
	}
	if median(perSec) != 4 || median(lat) != 1000 {
		t.Errorf("medians %v units/s, %v ms; want 4 and 1000", median(perSec), median(lat))
	}
	if got := perSec[segments-1]; math.Abs(got-8.0/7) > 1e-9 {
		t.Errorf("last segment %v units/s, want 8/7", got)
	}
	// Concurrent operations are counted once: 4 clients, each 2 s requests.
	ops = nil
	for c := 0; c < 4; c++ {
		for i := 0; i < 5; i++ {
			s := time.Duration(2*i) * time.Second
			ops = append(ops, op{Start: s, End: s + 2*time.Second, Units: 1})
		}
	}
	perSec, _ = windowStats(ops, 0, segments)
	if median(perSec) != 2 {
		t.Errorf("4 clients × 0.5 requests/s = %v, want 2", median(perSec))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "StepB", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "Recv", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "Recv", Start: 20 * ms, End: 40 * ms},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "Recv", Start: 90 * ms, End: 120 * ms}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "inner", Start: 12 * ms, End: 15 * ms}, // grandchild: not the parent's business
	}
	self := selfTimes(spans)
	if self[1] != 60*ms {
		t.Errorf("step self time %v, want 60ms", self[1])
	}
	if self[2] != 17*ms || self[5] != 3*ms {
		t.Errorf("child self times %v %v", self[2], self[5])
	}
}

func TestCompareVerdicts(t *testing.T) {
	thr := metricDef{"samples_per_s", "1/s", "higher", 0.10}
	lat := metricDef{"latency_ms_p50", "ms", "lower", 0.10}
	set := metricDef{"setup_s", "s", "lower", 0.25}
	mv := func(v, q1, q3 float64) metricValue { return metricValue{Value: v, Q1: q1, Q3: q3, N: 5} }
	cases := []struct {
		d    metricDef
		a, b metricValue
		want verdict
	}{
		{thr, mv(100, 99, 101), mv(95, 94, 96), same},
		{thr, mv(100, 99, 101), mv(85, 84, 86), worse},
		{thr, mv(100, 99, 101), mv(130, 129, 131), same}, // better is not worse
		{thr, mv(100, 90, 105), mv(85, 84, 86), unresolved},
		{lat, mv(10, 9.9, 10.1), mv(11.5, 11.4, 11.6), worse},
		{lat, mv(10, 9.9, 10.1), mv(10.9, 10.8, 11), same},
		{set, mv(1, 0.95, 1.05), mv(1.7, 1.65, 1.75), same}, // 0.25 + 0.5 s slack on a 1 s set-up
		{set, mv(1, 0.95, 1.05), mv(1.8, 1.75, 1.85), worse},
		{set, mv(4, 3.9, 4.1), mv(5.6, 5.5, 5.7), worse},
	}
	for i, c := range cases {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d (%s): %s, want %s", i, c.d.Name, got, c.want)
		}
	}
}

func TestCrossRunAssertions(t *testing.T) {
	run := func(w string, trace bool, perSec, overhead float64, losses ...float64) *result {
		return &result{Workload: w, Trace: trace, Losses: losses, Metrics: map[string]metricValue{
			"samples_per_s": {Value: perSec}, "bench.tracing_overhead": {Value: overhead}}}
	}
	f := &suiteFile{Runs: []*result{
		run("serve_batched", false, 100, 0), run("serve_single", false, 120, 0),
		run("dense_2048", false, 50, 0, 0.7, 0.6), run("dense_2048", true, 0, 1.10, 0.7, 0.61), // OverheadSE 0: 1.10 is over
		run("embed_cat", false, 12, 0, 0.7, 0.6), run("embed_cat", true, 0, 1.10, 0.7, 0.6),
	}}
	failed := map[string]bool{}
	for _, a := range crossRunAssertions(f) {
		failed[a.Name] = !a.OK
	}
	for _, name := range []string{"batched_at_least_single", "tracing_overhead_within_5pct/dense_2048", "traced_losses_bit_exact/dense_2048"} {
		if !failed[name] {
			t.Errorf("%s should have failed", name)
		}
	}
	if failed["traced_losses_bit_exact/embed_cat"] {
		t.Error("identical losses must pass")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the PR driver reads,
// in step with workloads.go, which the program reads.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds || len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", decl.RunSeconds, decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q, defined %q (why: %d chars)", i, decl.Workloads[i].Name, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: declared %+v, defined %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

func TestMedianRatio(t *testing.T) {
	xs := []float64{9, 10, 10, 10, 11, 12, 8, 10}
	r, se := medianRatio(xs, xs)
	if r != 1 || se <= 0 || se > 0.2 {
		t.Errorf("ratio %v ± %v of a sample with itself", r, se)
	}
	if _, se := medianRatio([]float64{5}, []float64{4}); se != 0 {
		t.Errorf("single samples have no measurable error, got %v", se)
	}
}
