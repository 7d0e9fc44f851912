package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"strings"
	"time"
)

// golden holds, per training workload, the per-step losses of seed 1. The
// engine is bit-exact and losses depend on neither keys nor blinding, so the
// comparison tolerance is 1e-9.
//
//go:embed golden/*.json
var golden embed.FS

const goldenTolerance = 1e-9

// goldenSteps is how many steps of seed 1 each golden file records; a run
// that gets further checks the rest for finiteness only.
const goldenSteps = 160

// refSteps is how many leading steps of every run are replayed on the
// reduced-scale keys and compared bit for bit — the correctness check that
// works for any seed.
const refSteps = 3

// metricValue is one reported number: the median of its samples, with their
// quartiles and count.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// assertion is one ordering the harness checks on its own numbers.
type assertion struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// shareRow is one line of the estimated breakdown of an operation's compute.
type shareRow struct {
	Layer string  `json:"layer"`
	Calls float64 `json:"calls"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`

	Metrics map[string]metricValue `json:"metrics"`

	CalibrationMs [2]float64 `json:"calibration_ms"` // before and after the workload
	Noisy         bool       `json:"noisy"`

	Losses       []float64 `json:"losses,omitempty"` // per step from step 0, warm-up included
	UntracedOpMs float64   `json:"untraced_op_ms"`   // median operation time with tracing off
	TracedOpMs   float64   `json:"traced_op_ms,omitempty"`
	OverheadSE   float64   `json:"overhead_se,omitempty"` // standard error of bench.tracing_overhead

	Assertions []assertion `json:"assertions,omitempty"`
	Breakdown  []shareRow  `json:"breakdown,omitempty"`
	Errors     []string    `json:"errors,omitempty"`
}

// runOpts configures one run. The benchmark proper uses defaultOpts; go test
// shrinks it.
type runOpts struct {
	Seed     int64
	Seconds  float64
	Trace    bool
	Setups   int                             // set-ups per untraced run; setup_s is their median
	MaxOps   int                             // cap on measured operations per phase (0: the clock decides)
	Keys     func(bits int) (keyPair, error) // fixtureKeys, or testKeys at reduced scale
	Golden   bool                            // compare seed 1's losses with the golden file
	TraceOut string                          // where to write the Chrome trace ("" = nowhere)
	Replays  int                             // timed calls per replayed function
}

func defaultOpts(seed int64, seconds float64, trace bool) runOpts {
	return runOpts{Seed: seed, Seconds: seconds, Trace: trace, Setups: 3, Keys: fixtureKeys, Golden: true, Replays: 20}
}

func (o runOpts) phase(share float64) time.Duration {
	return time.Duration(share * o.Seconds * float64(time.Second))
}

// stopper returns the stop function of one phase: after its share of the
// window, or after MaxOps operations when the run is capped.
func (o runOpts) stopper(share float64) func(done int) bool {
	deadline := time.Now().Add(o.phase(share))
	return func(done int) bool {
		if o.MaxOps > 0 {
			return done >= o.MaxOps
		}
		return !time.Now().Before(deadline)
	}
}

// The traced run splits its window: most of it alternates blocks of traced
// and untraced operations (their ratio is the tracing overhead, and drift
// hits both alike), a slice runs forward-only passes, and the rest replays
// the lower layers.
const (
	traceMainShare    = 0.55
	traceForwardShare = 0.10
	traceReplayShare  = 0.35
	traceBlock        = 2                      // steps per traced / untraced block
	traceSlice        = 500 * time.Millisecond // serve: tracer toggles on this period
	pairReplaySteps   = 8                      // sparse_wan steps repeated on a plain Pair
)

// calibrate times a fixed-operand 2048-bit modular exponentiation loop (the
// constants of internal/bench's calibration row) and returns the median ms
// per exponentiation: the same arithmetic on every machine and run, so two
// readings that differ mean the host changed speed, not the program.
func calibrate() float64 {
	pattern := func(b byte) *big.Int {
		buf := make([]byte, 256)
		for i := range buf {
			buf[i] = b
		}
		return new(big.Int).SetBytes(buf)
	}
	base, exp, mod := pattern(0xA5), pattern(0x5A), pattern(0xC3)
	mod.SetBit(mod, 0, 1)
	ms := timeCalls(func() { new(big.Int).Exp(base, exp, mod) }, nil, 48, 48, 0)
	return median(ms) * 1e3
}

// runWorkload runs one workload once and reports on it. It does not exit: the
// caller decides what a failed run means.
func runWorkload(w workload, o runOpts) *result {
	res := &result{Workload: w.Name, Seed: o.Seed, Trace: o.Trace, Seconds: o.Seconds, Metrics: make(map[string]metricValue)}
	e := benchEnv{tr: newTracer(), wrapConns: o.Trace, keys: o.Keys}
	res.CalibrationMs[0] = calibrate()
	var err error
	if w.Serve {
		err = runServe(w, o, e, res)
	} else {
		err = runTrain(w, o, e, res)
	}
	if err != nil {
		// An operation that errored never made it into the records: count it.
		res.Attempted++
		res.Failed++
		res.Errors = append(res.Errors, err.Error())
	}
	quiesce()
	res.CalibrationMs[1] = calibrate()
	lo, hi := res.CalibrationMs[0], res.CalibrationMs[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	res.Noisy = hi > 1.10*lo
	if o.Trace {
		res.put("bench.calibration_ms", res.CalibrationMs[:])
		for _, d := range perLayer { // a metric that does not apply reads 0
			if _, ok := res.Metrics[d.Name]; !ok {
				res.Metrics[d.Name] = metricValue{Unit: d.Unit}
			}
		}
		if o.TraceOut != "" {
			if err := writeChromeTrace(o.TraceOut, w.Name, e.tr.finished()); err != nil {
				res.Errors = append(res.Errors, err.Error())
			}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared in workloads.go")
}

// put records a metric as the median of its samples.
func (res *result) put(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	res.Metrics[name] = metricValue{Value: med, Unit: unitOf(name), Q1: q1, Q3: q3, N: len(samples)}
}

func (res *result) put1(name string, v float64) { res.put(name, []float64{v}) }

// endToEnd records an untraced run's end-to-end metrics from its operations.
func (res *result) endToEnd(ops []op, windowStart time.Duration, setupS []float64) {
	perSec, latMs := windowStats(ops, windowStart, segments)
	res.put("setup_s", setupS)
	res.put("samples_per_s", perSec)
	res.put("latency_ms_p50", latMs)
	res.UntracedOpMs = median(opMs(ops))
}

func (res *result) assert(name string, ok bool, format string, args ...any) {
	res.Assertions = append(res.Assertions, assertion{name, ok, fmt.Sprintf(format, args...)})
}

// tracingOverhead records the ratio of the traced to the untraced median
// operation time, taken between interleaved operations of one run, and checks
// that tracing did not speed the run up. The ratio of two medians of a few
// dozen noisy operations is itself noisy, so the check allows it two standard
// errors: noise is measured, not assumed.
func (res *result) tracingOverhead(traced, untraced []float64) {
	res.TracedOpMs, res.UntracedOpMs = median(traced), median(untraced)
	over, se := medianRatio(traced, untraced)
	res.OverheadSE = se
	res.put1("bench.tracing_overhead", over)
	res.assert("traced_not_faster", over+2*se >= 0.95,
		"median operation %.2f ms traced (n %d), %.2f ms untraced (n %d): overhead %.3f ± %.3f; tracing cannot speed a run up",
		res.TracedOpMs, len(traced), res.UntracedOpMs, len(untraced), over, se)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ---------------------------------------------------------------- training

// setUpTrain is one complete training set-up: everything from key generation
// to the last warm-up step and full pools. It returns the warm-up losses.
func setUpTrain(w workload, seed int64, e benchEnv, wan bool) (*trainRun, []float64, error) {
	resetProcessState()
	r, err := newTrainRun(w, seed, e, wan)
	if err != nil {
		return nil, nil, err
	}
	var losses []float64
	err = r.run(false, func(done int) bool { return done >= w.Warmup }, func(s stepRec) { losses = append(losses, s.Loss) })
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	waitPools(r.s.keys)
	return r, losses, nil
}

func stepOps(steps []stepRec, batch int) []op {
	ops := make([]op, len(steps))
	for i, s := range steps {
		ops[i] = op{Start: s.Start, End: s.End, Units: float64(batch), Traced: s.Traced}
	}
	return ops
}

func runTrain(w workload, o runOpts, e benchEnv, res *result) error {
	setups := o.Setups
	if o.Trace {
		setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var r *trainRun
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if r, res.Losses, err = setUpTrain(w, o.Seed, e, true); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var steps []stepRec
	record := func(s stepRec) {
		steps = append(steps, s)
		res.Losses = append(res.Losses, s.Loss)
	}
	if !o.Trace {
		start := e.tr.now()
		err := r.run(false, o.stopper(1), record)
		res.Attempted = len(steps)
		if len(steps) > 0 {
			res.endToEnd(stepOps(steps, w.Batch), start, setupS)
		}
		if err != nil {
			return err
		}
		checkLosses(w, o, res)
		return nil
	}

	// Traced run, main phase: alternate blocks of traced and untraced steps.
	r.traced = func(step int) bool { return (step-w.Warmup)/traceBlock%2 == 1 }
	c0 := r.s.snapshot()
	err := r.run(false, o.stopper(traceMainShare), record)
	c1 := r.s.snapshot()
	res.Attempted = len(steps)
	if err != nil {
		return err
	}
	checkLosses(w, o, res)
	ops := stepOps(steps, w.Batch)
	traced, untraced := tracedMs(ops)
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("traced run too short: %d traced and %d untraced steps", len(traced), len(untraced))
	}
	nSteps, nTraced := float64(len(steps)), float64(len(traced))
	res.tracingOverhead(traced, untraced)

	// Per-party busy and blocked time from the span tree.
	spans := e.tr.finished()
	partyMetrics(res, spans, "StepA", "a", traced)
	partyMetrics(res, spans, "StepB", "b", traced)

	// Counters over the main phase. The wrappers count only while tracing;
	// the program's own counters run throughout.
	res.put1("transport.msgs_per_step", float64(c1.ConnA.Msgs-c0.ConnA.Msgs+c1.ConnB.Msgs-c0.ConnB.Msgs)/nTraced)
	res.put1("transport.wire_kb_per_step", float64(c1.ConnA.Bytes-c0.ConnA.Bytes+c1.ConnB.Bytes-c0.ConnB.Bytes)/1e3/nTraced)
	res.put1("protocol.chunks_per_step", float64(c1.Chunks-c0.Chunks)/nSteps)
	res.put1("protocol.recv_wait_ms_per_step", (c1.RecvWait-c0.RecvWait).Seconds()*1e3/nSteps)
	res.put1("model.alloc_mb_per_step", float64(c1.TotalAlloc-c0.TotalAlloc)/1e6/nSteps)
	engineCounters(res, c0, c1, nSteps)

	// Forward-only passes.
	r.traced = func(int) bool { return true }
	var fwd []stepRec
	fwdStop := o.stopper(traceForwardShare)
	err = r.run(true, func(done int) bool { return done >= 3 && fwdStop(done) }, func(s stepRec) { fwd = append(fwd, s) })
	e.tr.on.Store(false)
	res.Attempted += len(fwd)
	if err != nil {
		return fmt.Errorf("forward pass: %w", err)
	}
	res.put1("model.forward_share", median(opMs(stepOps(fwd, w.Batch)))/res.TracedOpMs)

	// The wire's share of a step over the simulated WAN: the same steps, with
	// the same inputs, on a plain Pair.
	if w.LatencyMs > 0 {
		if err := pairReplay(w, o, e, res, ops); err != nil {
			return fmt.Errorf("pair replay: %w", err)
		}
	}

	// Replay the lower layers at this workload's key and shapes.
	keys := r.s.keys
	waitPools(keys)
	if err := replayLayers(w, o, keys, w.Batch, res); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	busy := res.Metrics["model.step_a_busy_ms"].Value + res.Metrics["model.step_b_busy_ms"].Value
	breakdown(res, callsPerOp(w, labelKeyLanes(keys), w.Batch), busy,
		float64(c1.PoolHits-c0.PoolHits)/nSteps, float64(c1.PoolMisses-c0.PoolMisses)/nSteps, 1)
	return nil
}

// partyMetrics derives one party's busy time (step span minus the part its
// Recv children cover) and blocked share from the spans, and checks that the
// party's step spans — busy plus blocked — add up to the steps' wall clock.
func partyMetrics(res *result, spans []span, stepName, party string, tracedStepMs []float64) {
	var tree []span
	stepIDs := make(map[int]bool)
	for _, s := range spans {
		if s.Name == stepName {
			stepIDs[s.ID] = true
			tree = append(tree, s)
		}
	}
	for _, s := range spans {
		if s.Name == "Recv" && stepIDs[s.Parent] {
			tree = append(tree, s)
		}
	}
	self := selfTimes(tree)
	var busy []float64
	var total, blocked time.Duration
	for _, s := range tree {
		if stepIDs[s.ID] {
			busy = append(busy, self[s.ID].Seconds()*1e3)
			total += s.End - s.Start
			blocked += (s.End - s.Start) - self[s.ID]
		}
	}
	res.put("model.step_"+party+"_busy_ms", busy)
	res.put1("transport.recv_blocked_share_"+party, ratio(blocked.Seconds(), total.Seconds()))
	wall := 0.0
	for _, ms := range tracedStepMs {
		wall += ms
	}
	got := total.Seconds() * 1e3
	res.assert("busy_plus_blocked_"+party, math.Abs(got-wall) <= 0.05*wall,
		"party %s: busy %.0f ms + blocked %.0f ms = %.0f ms over %d traced steps, step wall %.0f ms (must agree within 5%%)",
		strings.ToUpper(party), got-blocked.Seconds()*1e3, blocked.Seconds()*1e3, got, len(tracedStepMs), wall)
}

// engineCounters turns the pool and table-cache counter deltas into shares.
func engineCounters(res *result, c0, c1 counters, ops float64) {
	hits, misses := float64(c1.PoolHits-c0.PoolHits), float64(c1.PoolMisses-c0.PoolMisses)
	res.put1("paillier.pool_hit_share", ratio(hits, hits+misses))
	ch, cm := float64(c1.CacheHits-c0.CacheHits), float64(c1.CacheMisses-c0.CacheMisses)
	res.put1("hetensor.tablecache_hit_share", ratio(ch, ch+cm))
	// The cache counts evicted entries, not bytes: price them at the mean
	// entry size at the end of the window.
	entryMB := ratio(float64(c1.CacheBytes), float64(c1.CacheEntries)) / 1e6
	res.put1("hetensor.tablecache_evicted_mb_per_op", float64(c1.CacheEv-c0.CacheEv)*entryMB/ops)
}

// pairReplay repeats the first steps of a WAN workload on a plain Pair — same
// seed, so the same batches, the same cold and warm weight rows, the same
// compute — and reports the wire's share as 1 − pair/WAN over those steps.
func pairReplay(w workload, o runOpts, e benchEnv, res *result, wan []op) error {
	n := pairReplaySteps
	if n > len(wan) {
		n = len(wan)
	}
	local := benchEnv{tr: e.tr, keys: e.keys} // no wrappers: nothing is recorded here
	r, _, err := setUpTrain(w, o.Seed, local, false)
	if err != nil {
		return err
	}
	var pair []stepRec
	if err := r.run(false, func(done int) bool { return done >= n }, func(s stepRec) { pair = append(pair, s) }); err != nil {
		return err
	}
	pairMs, wanMs := median(opMs(stepOps(pair, w.Batch))), median(opMs(wan[:n]))
	share := 1 - pairMs/wanMs
	res.put1("transport.wire_share", share)
	res.assert("wan_not_faster_than_pair", wanMs >= pairMs,
		"median of the first %d steps: %.1f ms over the simulated WAN, %.1f ms over a Pair", n, wanMs, pairMs)
	res.assert("wire_share_at_least_half", share >= 0.5,
		"wire share %.2f: the link must be at least half of a %s step, or the workload does not stress the transport", share, w.Name)
	return nil
}

// replayLayers times each lower layer's exported functions on their own.
func replayLayers(w workload, o runOpts, keys keyPair, opBatch int, res *result) error {
	items, cleanup, err := buildReplay(w, keys, opBatch, o.Seed)
	if err != nil {
		return err
	}
	defer cleanup()
	budget := o.phase(traceReplayShare) / time.Duration(len(items)+1)
	least := 5
	if o.Replays < least {
		least = o.Replays
	}
	// Every call starts from full pools: the replay prices the pooled path,
	// and the window's own hit share says how often a step leaves it.
	refill := func() { waitPools(keys) }
	for _, it := range items {
		secs := timeCalls(it.Fn, refill, o.Replays, least, budget)
		for i := range secs {
			secs[i] *= it.PerCall
		}
		res.put(it.Metric, secs)
	}
	s, err := realKeygenSeconds(w.KeyBits)
	if err != nil {
		return err
	}
	res.put1("paillier.keygen_s", s)
	return nil
}

// breakdown prices one operation's compute with the replayed times. total is
// the compute to explain in ms; scale lets a serve batch count one of its two
// symmetric, concurrent parties. What the estimate does not cover is stated
// as the remainder, not spread over the rows.
func breakdown(res *result, calls layerCalls, totalMs, poolEncs, inlineEncs, scale float64) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	rows := []shareRow{
		{Layer: "hetensor.matmul", Calls: calls.Matmul, Ms: calls.Matmul * v("hetensor.matmul_ms")},
		{Layer: "hetensor.tmatmul", Calls: calls.TMatmul, Ms: calls.TMatmul * v("hetensor.tmatmul_ms")},
		{Layer: "hetensor.lookup", Calls: calls.Lookup, Ms: calls.Lookup * v("hetensor.lookup_ms")},
		{Layer: "hetensor.serve_products", Calls: calls.ServeProducts, Ms: calls.ServeProducts * v("hetensor.serve_products_ms")},
		{Layer: "paillier.pool_enc", Calls: poolEncs, Ms: poolEncs * v("paillier.pool_enc_us") / 1e3},
		{Layer: "paillier.pool_refill (background)", Calls: poolEncs, Ms: poolEncs * v("paillier.pool_refill_us") / 1e3},
		{Layer: "paillier.enc (pool miss)", Calls: inlineEncs, Ms: inlineEncs * v("paillier.enc_us") / 1e3},
		{Layer: "paillier.dec", Calls: calls.Decrypts, Ms: calls.Decrypts * v("paillier.dec_us") / 1e3},
	}
	rest := totalMs
	for i := range rows {
		rows[i].Calls *= scale
		rows[i].Ms *= scale
		rows[i].Share = ratio(rows[i].Ms, totalMs)
		rest -= rows[i].Ms
	}
	rows = append(rows, shareRow{Layer: "unexplained remainder", Ms: rest, Share: ratio(rest, totalMs)})
	res.Breakdown = rows
}

// checkLosses is the training correctness check. Every loss must be finite;
// for seed 1 the losses must match the golden file; and for any seed the
// leading steps must match, bit for bit, a replay on the reduced-scale keys.
// Each disagreeing step is a failed operation.
func checkLosses(w workload, o runOpts, res *result) {
	fail := func(format string, args ...any) {
		res.Failed++
		if len(res.Errors) < 8 {
			res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
		}
	}
	for i, l := range res.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			fail("step %d: loss %v is not finite", i, l)
		}
	}
	if o.Golden && o.Seed == 1 {
		want, err := readGolden(w.Name)
		if err != nil {
			fail("golden: %v", err)
		}
		for i := 0; i < len(want) && i < len(res.Losses); i++ {
			if !(math.Abs(res.Losses[i]-want[i]) <= goldenTolerance) {
				fail("step %d: loss %.17g, golden %.17g", i, res.Losses[i], want[i])
			}
		}
	}
	n := refSteps
	if n > len(res.Losses) {
		n = len(res.Losses)
	}
	ref, err := referenceLosses(w, o.Seed, n)
	if err != nil {
		fail("reference replay: %v", err)
		return
	}
	for i := range ref {
		if ref[i] != res.Losses[i] {
			fail("step %d: loss %.17g, reduced-scale reference %.17g (losses must not depend on the keys)", i, res.Losses[i], ref[i])
		}
	}
}

// referenceLosses runs the first n steps of a training workload on the
// reduced-scale keys over a plain Pair and returns their losses.
func referenceLosses(w workload, seed int64, n int) ([]float64, error) {
	r, err := newTrainRun(w, seed, benchEnv{tr: newTracer(), keys: testKeys}, false)
	if err != nil {
		return nil, err
	}
	var losses []float64
	err = r.run(false, func(done int) bool { return done >= n }, func(s stepRec) { losses = append(losses, s.Loss) })
	return losses, err
}

type goldenFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Losses   []float64 `json:"losses"`
}

func readGolden(name string) ([]float64, error) {
	buf, err := golden.ReadFile("golden/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(buf, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", name, err)
	}
	if g.Workload != name || g.Seed != 1 {
		return nil, fmt.Errorf("golden/%s.json records workload %q seed %d", name, g.Workload, g.Seed)
	}
	return g.Losses, nil
}

// ------------------------------------------------------------------ serving

func setUpServe(w workload, seed int64, e benchEnv) (*serveRun, []reqRec, error) {
	resetProcessState()
	r, err := newServeRun(w, seed, e)
	if err != nil {
		return nil, nil, err
	}
	warm := r.load(func(sent int) bool { return sent >= w.Warmup })
	waitPools(r.s.keys)
	return r, warm, nil
}

// reqOps keeps the answered requests; a failed one has no latency to report
// and is counted by verify.
func reqOps(recs []reqRec) []op {
	ops := make([]op, 0, len(recs))
	for _, rec := range recs {
		if rec.Err == nil {
			ops = append(ops, op{Start: rec.Start, End: rec.End, Units: 1, Traced: rec.Traced})
		}
	}
	return ops
}

func runServe(w workload, o runOpts, e benchEnv, res *result) error {
	setups := o.Setups
	if o.Trace {
		setups = 1
	}
	var r *serveRun
	var warm []reqRec
	var setupS []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, warm, err = setUpServe(w, o.Seed, e); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { r.close() }()

	// verify runs after the timed window; every response, warm-up included,
	// must equal the plaintext reference for its request.
	verify := func(recs []reqRec) {
		bad, first := r.verify(append(warm, recs...))
		res.Attempted = len(recs)
		res.Failed += bad
		if first != nil {
			res.Errors = append(res.Errors, first.Error())
		}
	}
	if !o.Trace {
		start := e.tr.now()
		recs := r.load(o.stopper(1))
		verify(recs)
		ops := reqOps(recs)
		if len(ops) == 0 {
			return fmt.Errorf("no request was answered")
		}
		res.endToEnd(ops, start, setupS)
		return nil
	}

	// Traced run, main phase: the tracer toggles every slice, so traced and
	// untraced requests interleave.
	c0 := r.snapshot()
	var tracedWall time.Duration
	done := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		slice := o.phase(traceMainShare) / 8 // a short window still gets both kinds of slice
		if slice > traceSlice {
			slice = traceSlice
		}
		tick := time.NewTicker(slice)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-tick.C:
			case <-done:
			}
			if e.tr.on.Load() {
				tracedWall += time.Since(last)
			}
			last = time.Now()
			select {
			case <-done:
				e.tr.on.Store(false)
				return
			default:
				e.tr.on.Store(!e.tr.on.Load())
			}
		}
	}()
	recs := r.load(o.stopper(traceMainShare))
	close(done)
	<-toggled
	c1 := r.snapshot()
	verify(recs)
	ops := reqOps(recs)
	traced, untraced := tracedMs(ops)
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("traced run too short: %d traced and %d untraced requests", len(traced), len(untraced))
	}
	res.tracingOverhead(traced, untraced)

	batches := float64(c1.Batches - c0.Batches)
	lanes := r.lanes()
	res.put1("serve.batch_fill", ratio(float64(c1.Served-c0.Served), batches*float64(lanes)))
	res.put1("serve.shed", float64(c1.Shed-c0.Shed))
	if v, ok := p99(opMs(ops)); ok {
		res.put1("serve.latency_ms_p99", v)
	}
	// The predictor runs its parties on goroutines of its own, so there is no
	// step span to hang Send/Recv on: blocked time is taken against the wall
	// clock the tracer was on for, and busy time is not split per party.
	res.put1("transport.recv_blocked_share_a", ratio((c1.ConnA.Blocked-c0.ConnA.Blocked).Seconds(), tracedWall.Seconds()))
	res.put1("transport.recv_blocked_share_b", ratio((c1.ConnB.Blocked-c0.ConnB.Blocked).Seconds(), tracedWall.Seconds()))
	tracedBatches := batches * ratio(tracedWall.Seconds(), o.phase(traceMainShare).Seconds())
	res.put1("transport.msgs_per_step", ratio(float64(c1.ConnA.Msgs-c0.ConnA.Msgs+c1.ConnB.Msgs-c0.ConnB.Msgs), tracedBatches))
	res.put1("transport.wire_kb_per_step", ratio(float64(c1.ConnA.Bytes-c0.ConnA.Bytes+c1.ConnB.Bytes-c0.ConnB.Bytes)/1e3, tracedBatches))
	res.put1("model.alloc_mb_per_step", ratio(float64(c1.TotalAlloc-c0.TotalAlloc)/1e6, batches))
	engineCounters(res, c0, c1, batches)
	if w.Clients > 1 {
		hit := res.Metrics["hetensor.tablecache_hit_share"].Value
		res.assert("tablecache_hits_on_fixed_weights", hit >= 0.9,
			"dot-table cache hit share %.3f with fixed encrypted weights (must be at least 0.9)", hit)
	}

	// Replay: one protocol batch of the height the batcher forms, then the
	// lower layers at that shape.
	opBatch := 1
	if w.Clients >= lanes {
		opBatch = lanes
	}
	secs := timeCalls(r.predictBatch(opBatch), func() { waitPools(r.s.keys) }, o.Replays, 5, o.phase(traceReplayShare)/8)
	for i := range secs {
		secs[i] *= 1e3
	}
	res.put("serve.predict_batch_ms", secs)
	batchMs := res.Metrics["serve.predict_batch_ms"].Value
	res.put1("serve.queue_wait_ms", res.UntracedOpMs-batchMs)
	if err := replayLayers(w, o, r.s.keys, opBatch, res); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	breakdown(res, callsPerOp(w, lanes, opBatch), batchMs,
		ratio(float64(c1.PoolHits-c0.PoolHits), batches), ratio(float64(c1.PoolMisses-c0.PoolMisses), batches), 0.5)
	return nil
}

// ------------------------------------------------------------------- report

// contractLine is the last line of a run's standard output: exactly the keys
// the PR driver reads, with the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one.
func contractLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		m := res.Metrics[d.Name]
		metrics[d.Name] = mv{m.Value, d.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(buf)
}

// report renders a run for a person.
func report(res *result) string {
	var b strings.Builder
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(&b, "== %s  seed %d  %s  %.0f s window\n", res.Workload, res.Seed, mode, res.Seconds)
	fmt.Fprintf(&b, "   ops attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	noisy := ""
	if res.Noisy {
		noisy = "  NOISY: the host changed speed by more than 10% during this workload"
	}
	fmt.Fprintf(&b, "   calibration %.3f ms before, %.3f ms after%s\n", res.CalibrationMs[0], res.CalibrationMs[1], noisy)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  [bound %.2f, %s is better]", d.Bound, d.Better)
		}
		fmt.Fprintf(&b, "   %-38s %12.4f %-6s q1 %.4f q3 %.4f n %d%s\n", d.Name, m.Value, d.Unit, m.Q1, m.Q3, m.N, bound)
	}
	if res.Trace {
		if m := res.Metrics["serve.latency_ms_p99"]; m.N == 0 && strings.HasPrefix(res.Workload, "serve") {
			fmt.Fprintf(&b, "   serve.latency_ms_p99 refused: fewer than %d samples\n", p99MinSamples)
		}
		fmt.Fprintf(&b, "   median operation: untraced %.2f ms, traced %.2f ms\n", res.UntracedOpMs, res.TracedOpMs)
		fmt.Fprintf(&b, "   estimated split of one operation's compute (replayed time × calls; an estimate):\n")
		for _, row := range res.Breakdown {
			if row.Ms != 0 {
				fmt.Fprintf(&b, "     %-28s %9.1f calls %9.2f ms %6.1f%%\n", row.Layer, row.Calls, row.Ms, 100*row.Share)
			}
		}
	}
	for _, a := range res.Assertions {
		verdict := "ok  "
		if !a.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "   assert %s %-32s %s\n", verdict, a.Name, a.Detail)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(&b, "   ERROR %s\n", e)
	}
	return b.String()
}

func failedAssertions(res *result) []string {
	var out []string
	for _, a := range res.Assertions {
		if !a.OK {
			out = append(out, res.Workload+": "+a.Name+": "+a.Detail)
		}
	}
	return out
}
