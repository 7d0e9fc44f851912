package main

// The benchmark's fixed deployment configuration. Every workload runs under
// it and nothing else: engine.Options{Packed, Stream, Pool, ShortExp,
// TableCacheMB}, the zero-value serve.Config, both parties as goroutines of
// one process with GOMAXPROCS pinned. No Textbook and no SecretOps — an
// in-process run that registers both keys' CRT paths would measure a
// deployment that cannot exist. These are constants, not flags: a number
// recorded under one value cannot be compared with one recorded under another.
const (
	poolCapacity  = 256 // blinding pool slots per key
	shortExpBits  = 400 // DJN short-exponent width on the pools
	tableCacheMiB = 64  // persistent Straus dot-table cache budget
	goMaxProcs    = 2   // = nproc of the host the baseline was recorded on
)

// workload is one fixed set of inputs. Sizes were tuned once on the 2-core
// baseline host and are frozen; README.md gives the reason for each.
type workload struct {
	Name string
	Why  string

	Model   string // lr | mlp | wdl
	Serve   bool
	KeyBits int
	Batch   int // training mini-batch rows
	Hidden  int // first hidden width (mlp, wdl); 0 for lr

	Feats, AvgNNZ       int // numeric features of both parties together
	CatFields, CatVocab int // categorical fields (wdl)
	EmbDim              int
	TrainRows, TestRows int

	// Link: 0 latency means the in-process transport.Pair; otherwise a
	// transport.SimPair with this one-way delay and per-direction bandwidth.
	LatencyMs int
	Mbit      float64

	Warmup  int // operations run in set-up, before the measured window
	Clients int // closed-loop clients (serve)
}

var workloads = []workload{
	{
		Name:  "dense_2048",
		Why:   "dense MatMul source layer under an MLP at the production key size over a free link: paillier and hetensor do all the work, transport none",
		Model: "mlp", KeyBits: 2048, Batch: 32, Hidden: 16,
		Feats: 28, AvgNNZ: 28, TrainRows: 1024, TestRows: 32,
		Warmup: 2,
	},
	{
		Name:  "sparse_wan",
		Why:   "sparse MatMul layer (LR, 4000 features) over a 50 ms / 8 Mbit/s simulated WAN: many small round trips, wire time at least half the step",
		Model: "lr", KeyBits: 1024, Batch: 16,
		Feats: 4000, AvgNNZ: 12, TrainRows: 1024, TestRows: 32,
		LatencyMs: 50, Mbit: 8,
		Warmup: 1,
	},
	{
		Name:  "embed_cat",
		Why:   "Embed-MatMul layer (WDL, categorical fields): encrypted lookups, scatter-back and table re-encryption — encryption- and pool-bound, not dot-product-bound",
		Model: "wdl", KeyBits: 1024, Batch: 16, Hidden: 8,
		Feats: 64, AvgNNZ: 8, CatFields: 4, CatVocab: 32, EmbDim: 8, TrainRows: 1024, TestRows: 32,
		Warmup: 1,
	},
	{
		Name:  "serve_batched",
		Why:   "checkpointed LR behind the serve batcher, 32 closed-loop clients: lanes fill, encrypted weights are fixed, so the dot-table cache is read-only and all hits",
		Model: "lr", Serve: true, KeyBits: 2048, Batch: 32,
		Feats: 28, AvgNNZ: 28, TrainRows: 64, TestRows: 32,
		Warmup: 200, Clients: 32,
	},
	{
		Name:  "serve_single",
		Why:   "the same server with one client: lanes never fill, latency is flush wait plus one full per-group cost — batching harder shows here as worse latency",
		Model: "lr", Serve: true, KeyBits: 2048, Batch: 32,
		Feats: 28, AvgNNZ: 28, TrainRows: 64, TestRows: 32,
		Warmup: 100, Clients: 1,
	},
}

// requestPool is how many distinct request rows a serve workload draws from.
const requestPool = 1024

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric. Bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression; per-
// layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	Bound  float64
}

// The end-to-end metrics: what the two organisations running vertical
// federated learning pay for — time before either training or serving starts,
// how fast samples are trained on or scored, and how long one operation (a
// federated step, a served request) takes. Every workload reports all three.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.15},
	{"latency_ms_p50", "ms", "lower", 0.15},
}

// setupSlackS is the absolute slack -compare adds to setup_s's bound: a
// set-up of a second or two is dominated by fixed costs whose jitter is
// absolute, not relative.
const setupSlackS = 0.5

// The per-layer metrics, named <module>.<metric>. A metric that does not
// apply to a workload (lookups outside embed_cat, serve counters on training)
// reads 0 there. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "paillier.enc_us", Unit: "us", Better: "lower"},
	{Name: "paillier.pool_enc_us", Unit: "us", Better: "lower"},
	{Name: "paillier.pool_refill_us", Unit: "us", Better: "lower"},
	{Name: "paillier.dec_us", Unit: "us", Better: "lower"},
	{Name: "paillier.dotrow_us", Unit: "us", Better: "lower"},
	{Name: "paillier.pool_hit_share", Unit: "share", Better: "higher"},
	{Name: "paillier.keygen_s", Unit: "s", Better: "lower"},
	{Name: "hetensor.matmul_ms", Unit: "ms", Better: "lower"},
	{Name: "hetensor.tmatmul_ms", Unit: "ms", Better: "lower"},
	{Name: "hetensor.encrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "hetensor.decrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "hetensor.lookup_ms", Unit: "ms", Better: "lower"},
	{Name: "hetensor.serve_products_ms", Unit: "ms", Better: "lower"},
	{Name: "hetensor.tablecache_hit_share", Unit: "share", Better: "higher"},
	{Name: "hetensor.tablecache_evicted_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "protocol.he2ss_ms", Unit: "ms", Better: "lower"},
	{Name: "protocol.ss2he_ms", Unit: "ms", Better: "lower"},
	{Name: "protocol.chunks_per_step", Unit: "count", Better: "lower"},
	{Name: "protocol.recv_wait_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "transport.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "transport.wire_kb_per_step", Unit: "kB", Better: "lower"},
	{Name: "transport.recv_blocked_share_a", Unit: "share", Better: "lower"},
	{Name: "transport.recv_blocked_share_b", Unit: "share", Better: "lower"},
	{Name: "transport.wire_share", Unit: "share", Better: "lower"},
	{Name: "transport.gob_us_per_kb", Unit: "us/kB", Better: "lower"},
	{Name: "model.step_a_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "model.step_b_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "model.forward_share", Unit: "share", Better: "lower"},
	{Name: "model.alloc_mb_per_step", Unit: "MB", Better: "lower"},
	{Name: "serve.batch_fill", Unit: "share", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.predict_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "bench.tracing_overhead", Unit: "ratio", Better: "lower"},
	{Name: "bench.calibration_ms", Unit: "ms", Better: "lower"},
}
