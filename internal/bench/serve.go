package bench

import (
	"bytes"
	"fmt"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/engine"
	"blindfl/internal/hetensor"
	"blindfl/internal/model"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/serve"
	"blindfl/internal/tensor"
)

// Serving benchmark: the online-inference counterpart of the fed-step rows.
// It trains a small dense model to a checkpoint, restores a Predictor on
// fresh sessions, and drives the serve runtime with the closed-loop load
// generator in two regimes — sequential (one request per protocol batch, one
// client) and batched (lane-width batches fed by 2K concurrent clients).
//
// What batching buys: a serve batch's packed exponents grow by one lane
// (~124 bits) per extra request, while the per-batch mask encryption,
// transfer and decryption — a full |n|-bit exponentiation each — are paid
// once per lane group. The amortizable share therefore grows with the key
// size: at the 512-bit test keys a lane group is only ~1.6× cheaper per
// request than one-request batches, while at the 1024-bit benchmark default
// (protocol.KeyBits, K = 8 lanes) it is well past the 2× acceptance bar.
// Beyond one lane group each extra group pays its own encrypt/decrypt, so
// the batcher's lane-width default is also the benchmark's batch depth.

// ServePerf bundles the serve benchmark's measurements.
type ServePerf struct {
	KeyBits    int
	Lanes      int
	Sequential serve.LoadResult
	Batched    serve.LoadResult
	CacheHits  int64 // dot-table cache hits during the batched (steady-state) run
	Misses     int64 // dot-table cache misses during the batched run

	// Integrity counters from the batched run: serve-level request
	// spot-checks (serve.Stats) and protocol-level decrypt spot-checks
	// (protocol.StreamStats), both zero unless eng.SpotCheck is on.
	SpotChecks     int64
	SpotMismatches int64
}

// Speedup is batched over sequential throughput.
func (s ServePerf) Speedup() float64 {
	if s.Sequential.Throughput == 0 {
		return 0
	}
	return s.Batched.Throughput / s.Sequential.Throughput
}

// RunServePerf builds the serve stack and measures both regimes. requests is
// the batched-run request count (the sequential run uses a quarter of it,
// floor 8). keyBits sizes the Paillier keys: 512 reuses the cached test keys,
// anything else generates a fresh pair. The benchmark forces a dot-table
// cache budget if eng has none, so the steady-state hit counters mean
// something.
func RunServePerf(eng engine.Options, keyBits, requests int) (ServePerf, error) {
	if eng.TableCacheMB <= 0 {
		eng.TableCacheMB = 128
	}
	spec := data.Spec{Name: "bench-serve", Feats: 8, AvgNNZ: 8, Classes: 2, Train: 128, Test: 64}
	ds := data.Generate(spec, 31)
	h := model.DefaultHyper()
	h.Epochs = 1
	h.Batch = 32
	h.Options = eng

	var skA, skB *paillier.PrivateKey
	if keyBits == 512 {
		skA, skB = protocol.TestKeys()
	} else {
		var err error
		if skA, err = paillier.GenerateKey(paillier.Rand, keyBits); err != nil {
			return ServePerf{}, err
		}
		if skB, err = paillier.GenerateKey(paillier.Rand, keyBits); err != nil {
			return ServePerf{}, err
		}
	}
	eng.SetupKeys(skA, skB)
	eng.Apply()

	pa, pb, err := protocol.Pipe(skA, skB, 41)
	if err != nil {
		return ServePerf{}, err
	}
	var ck bytes.Buffer
	if _, err := (model.Trainer{Kind: model.LR, Hyper: h, Checkpoint: &ck}).Train(ds, model.Pair(pa, pb)); err != nil {
		return ServePerf{}, err
	}
	pa2, pb2, err := protocol.Pipe(skA, skB, 42)
	if err != nil {
		return ServePerf{}, err
	}
	p, err := model.NewPredictor(bytes.NewReader(ck.Bytes()), model.Pair(pa2, pb2))
	if err != nil {
		return ServePerf{}, err
	}

	rows := make([]int, ds.TestB.Dense.Rows)
	for i := range rows {
		rows[i] = i
	}
	newReq := serve.RandomRequests([]*tensor.Dense{ds.TestA.Dense}, ds.TestB.Dense, rows)
	lanes := p.Lanes()
	if requests < 4*lanes {
		requests = 4 * lanes
	}

	res := ServePerf{KeyBits: keyBits, Lanes: lanes}

	// Sequential baseline: one client, one request per protocol batch.
	seq := serve.NewServer(p, serve.Config{MaxBatch: 1, SpotCheck: eng.SpotCheck})
	seqReqs := requests / 4
	if seqReqs < 8 {
		seqReqs = 8
	}
	serve.RunLoad(seq, newReq, 1, 2) // warm-up: session tables, pools
	res.Sequential = serve.RunLoad(seq, newReq, 1, seqReqs)
	seq.Close()

	// Batched: lane groups filled across 2K concurrent clients. The flush
	// interval is generous because this is a throughput benchmark: a batch
	// that launches half-empty on a scheduling hiccup pays the full per-group
	// cost for half the requests. The warm-up also brackets the steady-state
	// dot-table counters: the weight pieces' Straus tables were built during
	// warm-up, so the measured run should be nearly all hits.
	bat := serve.NewServer(p, serve.Config{FlushInterval: 25 * time.Millisecond, SpotCheck: eng.SpotCheck})
	serve.RunLoad(bat, newReq, 2*lanes, 2*lanes)
	cs0 := hetensor.TableCacheStatsNow()
	res.Batched = serve.RunLoad(bat, newReq, 2*lanes, requests)
	cs1 := hetensor.TableCacheStatsNow()
	st := bat.Stats()
	bat.Close()
	res.CacheHits = cs1.Hits - cs0.Hits
	res.Misses = cs1.Misses - cs0.Misses
	res.SpotChecks = st.SpotChecks + pb2.Stream.SpotChecks
	res.SpotMismatches = st.Mismatches + pb2.Stream.SpotMismatches
	return res, nil
}

// RunPerfServe runs the serve benchmark and flattens it into PerfResult rows
// for the BENCH json: serve_latency p50/p95/p99 (batched regime, end-to-end
// per request) and serve_throughput sequential/batched_conc2k (ns per served
// request). The row format is documented in internal/bench/README.md.
func RunPerfServe(eng engine.Options, keyBits, requests int) ([]PerfResult, error) {
	sp, err := RunServePerf(eng, keyBits, requests)
	if err != nil {
		return nil, err
	}
	nsPerReq := func(r serve.LoadResult) float64 {
		if r.Throughput == 0 {
			return 0
		}
		return 1e9 / r.Throughput
	}
	return []PerfResult{
		{Op: "serve_latency", Config: "p50", KeyBits: keyBits, NsPerOp: float64(sp.Batched.P50.Nanoseconds()), Iters: sp.Batched.OK},
		{Op: "serve_latency", Config: "p95", KeyBits: keyBits, NsPerOp: float64(sp.Batched.P95.Nanoseconds()), Iters: sp.Batched.OK},
		{Op: "serve_latency", Config: "p99", KeyBits: keyBits, NsPerOp: float64(sp.Batched.P99.Nanoseconds()), Iters: sp.Batched.OK},
		{Op: "serve_throughput", Config: "sequential", KeyBits: keyBits, NsPerOp: nsPerReq(sp.Sequential), Iters: sp.Sequential.OK},
		{Op: "serve_throughput", Config: "batched_conc2k", KeyBits: keyBits, NsPerOp: nsPerReq(sp.Batched), Iters: sp.Batched.OK},
	}, nil
}

// String renders the serve measurements as the multi-line report the CLI
// prints for -serve.
func (s ServePerf) String() string {
	return fmt.Sprintf(
		"%d-bit keys, %d lanes\n"+
			"sequential:  %3d ok in %v — %7.1f req/s\n"+
			"batched 2K:  %3d ok in %v — %7.1f req/s\n"+
			"latency (batched) p50 %v | p95 %v | p99 %v\n"+
			"cross-request batching speedup: %.2fx\n"+
			"steady-state dot-table cache: %d hits / %d misses\n"+
			"integrity: %d spot-checks / %d mismatches",
		s.KeyBits, s.Lanes,
		s.Sequential.OK, s.Sequential.Duration.Round(time.Millisecond), s.Sequential.Throughput,
		s.Batched.OK, s.Batched.Duration.Round(time.Millisecond), s.Batched.Throughput,
		s.Batched.P50.Round(time.Microsecond), s.Batched.P95.Round(time.Microsecond), s.Batched.P99.Round(time.Microsecond),
		s.Speedup(), s.CacheHits, s.Misses, s.SpotChecks, s.SpotMismatches)
}
