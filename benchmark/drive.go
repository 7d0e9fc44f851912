package main

// drive.go is the one file through which the benchmark touches the program.
// Every exported symbol of blindfl/internal/... the benchmark depends on is
// used here and nowhere else, so a refactor that changes one of them knows
// exactly what it must keep, or re-record the baseline for:
//
//	engine    Options{Packed,Stream,Pool,ShortExp,TableCacheMB}, Options.SetupKeys, Options.Apply
//	data      Spec, Generate, Dataset{TrainA,TrainB,TrainY,TestA,TestB}, Part.Batch, Part.Rows, Shuffle
//	model     LR, MLP, WDL, Hyper, DefaultHyper, NewFedA, NewFedB, FedA.StepA, FedA.ForwardA,
//	          FedB.StepB, FedB.ForwardB, Trainer{Kind,Hyper,Checkpoint}.Train, Pair, NewPredictor,
//	          Predictor.PredictBatch, Predictor.PlainLogits, Predictor.Lanes
//	serve     NewServer, Config (zero value), Request, Server.Predict, Server.Stats, Server.Close
//	protocol  Pipe, PipeOn, RunParties, TestKeys, Peer{Conn,Stream}, StreamStats{ChunksSent,RecvWait},
//	          Peer.HE2SSSend/Recv, HE2SSSendStream/RecvStream, HE2SSSendPackedStream/RecvPackedStream,
//	          Peer.SS2HE, SS2HEStream
//	hetensor  PackEncrypt, DecryptPacked, MulPlainLeftPacked, TransposeMulLeftPacked, Encrypt, Decrypt,
//	          EncryptRows, MulPlainLeft, TransposeMulLeft, MulPlainLeftCSR, TransposeMulLeftCSRSubset,
//	          LookupPacked, LookupBackward, ServeProducts, ServeMask, DecryptPackedInts, Lanes,
//	          CipherMatrix{Rows,Cols,Scale,PK,C}, CipherMatrix.MintID, PackedMatrix.MintID,
//	          TableCacheStatsNow, ResetTableCache
//	paillier  GenerateKey, Rand, PrivateKey, PublicKey.Encrypt, PrivateKey.Decrypt, PublicKey.DotRow,
//	          SignedExp, EncryptPooled, PoolFor, Pool.Stats, Pool.WaitAvailable
//	transport Conn, Pair, SimPair, WireSize, NewGobConn
//	tensor    Dense, CSR, IntMatrix, RandDense, RandCSR, NewIntMatrix
//	rng       New, Derive

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	mrand "math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/engine"
	"blindfl/internal/hetensor"
	"blindfl/internal/model"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/rng"
	"blindfl/internal/serve"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// deployment is the one engine configuration every workload runs under.
var deployment = engine.Options{Packed: true, Stream: true, Pool: poolCapacity, ShortExp: shortExpBits, TableCacheMB: tableCacheMiB}

// keyPair is the two parties' Paillier keys.
type keyPair struct{ A, B *paillier.PrivateKey }

// fixtureReader is a seeded byte stream for BENCHMARK-ONLY key generation.
// Random 2048-bit key generation takes 0.1–3 s depending on how soon the
// prime search gets lucky, which would dominate setup_s's noise; a fixed
// stream makes the search, and so its cost, the same on every run. One-byte
// reads return without advancing the stream: crypto/rand's Prime issues one
// with probability ½ (randutil.MaybeReadByte) precisely to defeat
// deterministic readers, and that read must not shift what follows. Keys made
// this way are public knowledge — never use them outside the benchmark.
type fixtureReader struct{ stream *mrand.Rand }

func (r fixtureReader) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return r.stream.Read(p)
}

// fixtureKeys generates the benchmark's key pair for a modulus size: the same
// two moduli on every run, at the same cost. It is part of every set-up.
func fixtureKeys(bits int) (keyPair, error) {
	var kp keyPair
	var err error
	if kp.A, err = paillier.GenerateKey(fixtureReader{rng.New(int64(bits), "benchmark-fixture-key-a")}, bits); err != nil {
		return kp, fmt.Errorf("fixture key A: %w", err)
	}
	if kp.B, err = paillier.GenerateKey(fixtureReader{rng.New(int64(bits), "benchmark-fixture-key-b")}, bits); err != nil {
		return kp, fmt.Errorf("fixture key B: %w", err)
	}
	return kp, nil
}

// testKeys is the reduced-scale key source: the program's cached 512-bit
// pair. `go test` runs every workload on it, and the per-run reference replay
// uses it because losses do not depend on the keys.
func testKeys(int) (keyPair, error) {
	a, b := protocol.TestKeys()
	return keyPair{a, b}, nil
}

// realKeygenSeconds times one genuinely random key generation.
func realKeygenSeconds(bits int) (float64, error) {
	t0 := time.Now()
	if _, err := paillier.GenerateKey(paillier.Rand, bits); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// benchEnv is what a run is built in.
type benchEnv struct {
	tr        *tracer                         // the run's clock and span store; off in untraced runs
	wrapConns bool                            // install the tracing connection wrappers
	keys      func(bits int) (keyPair, error) // fixtureKeys, or testKeys at reduced scale
}

func dataSpec(w workload) data.Spec {
	return data.Spec{Name: w.Name, Feats: w.Feats, AvgNNZ: w.AvgNNZ, Classes: 2,
		Train: w.TrainRows, Test: w.TestRows, CatFields: w.CatFields, CatVocab: w.CatVocab}
}

func hyper(w workload, seed int64) model.Hyper {
	h := model.DefaultHyper()
	h.Batch, h.Seed, h.Epochs = w.Batch, seed, 1
	if w.Hidden > 0 {
		h.Hidden = []int{w.Hidden}
	}
	if w.EmbDim > 0 {
		h.EmbDim = w.EmbDim
	}
	h.Options = deployment
	return h
}

func modelKind(w workload) model.Kind {
	switch w.Model {
	case "mlp":
		return model.MLP
	case "wdl":
		return model.WDL
	}
	return model.LR
}

// session is one two-party protocol session over a pair of in-process
// connections. They own no goroutine and no descriptor, so a finished session
// is simply dropped; only RunParties closes them, on a party's error.
type session struct {
	keys   keyPair
	pa, pb *protocol.Peer
	ca, cb *tracedConn // nil unless the run wraps connections
}

// openSession builds the link — the workload's simulated WAN when wan is set
// and the workload has one, a plain in-process pair otherwise — and completes
// the handshake.
func openSession(w workload, seed int64, keys keyPair, e benchEnv, wan bool) (*session, error) {
	var a, b transport.Conn
	if wan && w.LatencyMs > 0 {
		a, b = transport.SimPair(4096, time.Duration(w.LatencyMs)*time.Millisecond, w.Mbit*1e6/8)
	} else {
		a, b = transport.Pair(4096)
	}
	s := &session{keys: keys}
	if e.wrapConns {
		s.ca = &tracedConn{inner: a, tr: e.tr, track: "party A", size: transport.WireSize}
		s.cb = &tracedConn{inner: b, tr: e.tr, track: "party B", size: transport.WireSize}
		a, b = s.ca, s.cb
	}
	var err error
	if s.pa, s.pb, err = protocol.PipeOn(a, b, keys.A, keys.B, seed); err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	return s, nil
}

// installKeys applies the deployment configuration to a key pair: process-
// wide engine settings, then a pool with comb tables per key.
func installKeys(keys keyPair) {
	deployment.Apply()
	deployment.SetupKeys(keys.A, keys.B)
	installed = append(installed, keys)
}

// installed lists every key pair this process registered pools for.
var installed []keyPair

// quiesce waits until every pool this process registered is full again, so
// that the program's own background refills are not read as host noise by the
// calibration reading that follows.
func quiesce() {
	for _, keys := range installed {
		waitPools(keys)
	}
}

// waitPools blocks until both keys' blinding pools are full, so the measured
// window starts from the steady state and not from a pool still filling.
func waitPools(keys keyPair) {
	for _, sk := range []*paillier.PrivateKey{keys.A, keys.B} {
		if p := paillier.PoolFor(&sk.PublicKey); p != nil {
			p.WaitAvailable(poolCapacity)
		}
	}
}

// resetProcessState clears what an earlier set-up in this process left in the
// program's process-wide caches, so every set-up starts cold.
func resetProcessState() { hetensor.ResetTableCache() }

// counters is a snapshot of every public counter the traced run brackets its
// window with.
type counters struct {
	PoolHits, PoolMisses             int64 // both keys' pools
	CacheHits, CacheMisses, CacheEv  int64
	CacheBytes                       int64
	CacheEntries                     int
	Chunks                           int64         // StreamStats.ChunksSent, both peers
	RecvWait                         time.Duration // StreamStats.RecvWait, both peers
	ConnA, ConnB                     connCounters
	TotalAlloc                       uint64
	Served, Batches, Shed, SrvFailed int64
}

func (s *session) snapshot() counters {
	var c counters
	for _, sk := range []*paillier.PrivateKey{s.keys.A, s.keys.B} {
		if p := paillier.PoolFor(&sk.PublicKey); p != nil {
			st := p.Stats()
			c.PoolHits += st.Hits
			c.PoolMisses += st.Misses
		}
	}
	tc := hetensor.TableCacheStatsNow()
	c.CacheHits, c.CacheMisses, c.CacheEv, c.CacheBytes, c.CacheEntries = tc.Hits, tc.Misses, tc.Evicted, tc.Bytes, tc.Entries
	// Peer.Stream belongs to the party's goroutine; snapshots are taken
	// between phases, when no party is running.
	c.Chunks = s.pa.Stream.ChunksSent + s.pb.Stream.ChunksSent
	c.RecvWait = s.pa.Stream.RecvWait + s.pb.Stream.RecvWait
	c.ConnA, c.ConnB = s.ca.counters(), s.cb.counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.TotalAlloc = ms.TotalAlloc
	return c
}

// ---------------------------------------------------------------- training

// stepRec is one federated step as the label party saw it.
type stepRec struct {
	Step       int
	Start, End time.Duration
	Traced     bool
	Loss       float64
}

// trainRun is a two-party model on a live session, stepped batch by batch.
type trainRun struct {
	w      workload
	e      benchEnv
	s      *session
	ds     *data.Dataset
	ma     *model.FedA
	mb     *model.FedB
	order  *mrand.Rand
	perm   []int
	pos    int
	step   int
	traced func(step int) bool // which steps record spans; nil in untraced runs
}

// newTrainRun is the training half of a set-up: keys, pools and comb tables,
// data, handshake, and source-layer initialisation (the first encrypted
// weight pieces cross the link here).
func newTrainRun(w workload, seed int64, e benchEnv, wan bool) (*trainRun, error) {
	keys, err := e.keys(w.KeyBits)
	if err != nil {
		return nil, err
	}
	installKeys(keys)
	s, err := openSession(w, seed, keys, e, wan)
	if err != nil {
		return nil, err
	}
	r := &trainRun{w: w, e: e, s: s, ds: data.Generate(dataSpec(w), seed), order: rng.New(seed, "benchmark-batch-order")}
	kind, h := modelKind(w), hyper(w, seed)
	err = protocol.RunParties(s.pa, s.pb,
		func() { r.ma = model.NewFedA(s.pa, kind, r.ds, h) },
		func() { r.mb = model.NewFedB(s.pb, kind, r.ds, h) })
	if err != nil {
		return nil, fmt.Errorf("source-layer init: %w", err)
	}
	return r, nil
}

// nextBatch draws the next mini-batch's rows: full batches only, reshuffled
// from the seeded order stream when the epoch runs out.
func (r *trainRun) nextBatch() []int {
	if r.pos+r.w.Batch > len(r.perm) {
		r.perm, r.pos = data.Shuffle(r.order, r.ds.TrainA.Rows()), 0
	}
	idx := r.perm[r.pos : r.pos+r.w.Batch]
	r.pos += r.w.Batch
	return idx
}

// run steps the model until stop says so. Each party runs its own loop for
// the whole call, as the trainer's parties do — no barrier between steps. The
// label party decides when to stop and hands each batch's rows to the feature
// party (standing in for the batch order the two agreed on at set-up).
// forwardOnly runs the inference-shaped ForwardA/ForwardB passes instead.
func (r *trainRun) run(forwardOnly bool, stop func(done int) bool, each func(stepRec)) error {
	type ticket struct {
		step   int
		idx    []int
		traced bool
	}
	// One slot: the label party can hand over the next batch while the
	// feature party is still receiving the last message of this one.
	next := make(chan ticket, 1)
	nameA, nameB := "StepA", "StepB"
	if forwardOnly {
		nameA, nameB = "ForwardA", "ForwardB"
	}
	tr := r.e.tr
	return protocol.RunParties(r.s.pa, r.s.pb,
		func() {
			for t := range next {
				part := r.ds.TrainA.Batch(t.idx)
				id := 0
				if t.traced {
					id = tr.begin(nameA, "party A", 0, t.step)
				}
				if r.s.ca != nil {
					r.s.ca.enter(id, t.step)
				}
				if forwardOnly {
					r.ma.ForwardA(part)
				} else {
					r.ma.StepA(part)
				}
				tr.end(id, 0)
			}
		},
		func() {
			defer close(next)
			for done := 0; !stop(done); done++ {
				idx := r.nextBatch()
				traced := r.traced != nil && r.traced(r.step)
				tr.on.Store(traced)
				next <- ticket{r.step, idx, traced}
				part := r.ds.TrainB.Batch(idx)
				y := make([]int, len(idx))
				for i, row := range idx {
					y[i] = r.ds.TrainY[row]
				}
				rec := stepRec{Step: r.step, Traced: traced, Start: tr.now()}
				id := tr.begin(nameB, "party B", 0, r.step)
				if r.s.cb != nil {
					r.s.cb.enter(id, r.step)
				}
				if forwardOnly {
					r.mb.ForwardB(part)
				} else {
					rec.Loss = r.mb.StepB(part, y)
				}
				tr.end(id, 0)
				rec.End = tr.now()
				r.step++
				each(rec)
			}
		})
}

// ------------------------------------------------------------------ serving

// reqRec is one served request as its client saw it.
type reqRec struct {
	Seq        int // position in the request order
	Row        int // which row of the request pool it asked about
	Start, End time.Duration
	Traced     bool
	Logits     []float64
	Err        error
}

// serveRun is a checkpointed model restored into a Predictor on a fresh
// session, behind the serve batcher.
type serveRun struct {
	w      workload
	e      benchEnv
	s      *session
	p      *model.Predictor
	srv    *serve.Server
	xa, xb *tensor.Dense // the request pool, one row per party per request
	order  []int
	next   atomic.Int64
}

// newServeRun is the serving half of a set-up: keys and pools, training the
// checkpoint, restoring it onto a fresh session (the serve-session weight
// exchange runs here), and starting the batcher with the zero-value Config.
func newServeRun(w workload, seed int64, e benchEnv) (*serveRun, error) {
	keys, err := e.keys(w.KeyBits)
	if err != nil {
		return nil, err
	}
	installKeys(keys)

	ta, tb, err := protocol.Pipe(keys.A, keys.B, rng.Derive(seed, "benchmark-checkpoint-session"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint session: %w", err)
	}
	var ck bytes.Buffer
	_, err = model.Trainer{Kind: model.LR, Hyper: hyper(w, seed), Checkpoint: &ck}.Train(data.Generate(dataSpec(w), seed), model.Pair(ta, tb))
	if err != nil {
		return nil, fmt.Errorf("checkpoint training: %w", err)
	}

	s, err := openSession(w, rng.Derive(seed, "benchmark-serve-session"), keys, e, false)
	if err != nil {
		return nil, err
	}
	p, err := model.NewPredictor(bytes.NewReader(ck.Bytes()), model.Pair(s.pa, s.pb))
	if err != nil {
		return nil, fmt.Errorf("restoring predictor: %w", err)
	}
	pool := dataSpec(w)
	pool.Train, pool.Test = 1, requestPool
	reqs := data.Generate(pool, rng.Derive(seed, "benchmark-requests"))
	return &serveRun{
		w: w, e: e, s: s, p: p, srv: serve.NewServer(p, serve.Config{}),
		xa: reqs.TestA.Dense, xb: reqs.TestB.Dense,
		order: data.Shuffle(rng.New(seed, "benchmark-request-order"), requestPool),
	}, nil
}

// close stops the batcher and waits for it.
func (r *serveRun) close() { r.srv.Close() }

func (r *serveRun) lanes() int { return r.p.Lanes() }

// load drives the server closed loop: each client hands its next request to
// Server.Predict when the previous one returns, until stop says so. Closed
// loop because the callers are the label party's own application servers,
// each waiting for its reply.
func (r *serveRun) load(stop func(sent int) bool) []reqRec {
	tr := r.e.tr
	var first = r.next.Load()
	per := make([][]reqRec, r.w.Clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			track := fmt.Sprintf("client %02d", c)
			for {
				seq := r.next.Add(1) - 1
				if stop(int(seq - first)) {
					r.next.Add(-1)
					return
				}
				row := r.order[int(seq)%len(r.order)]
				req := serve.Request{XAs: []*tensor.Dense{r.xa.RowSlice(row, row+1)}, XB: r.xb.RowSlice(row, row+1)}
				rec := reqRec{Seq: int(seq), Row: row, Traced: tr.enabled()}
				id := tr.begin("Predict", track, 0, int(seq))
				rec.Start = tr.now()
				resp := r.srv.Predict(req)
				rec.End = tr.now()
				tr.end(id, 0)
				if rec.Err = resp.Err; resp.Err == nil {
					rec.Logits = resp.Logits.Data
				}
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	var all []reqRec
	for _, recs := range per {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// verify compares every response with Predictor.PlainLogits for its request —
// the exact-integer plaintext forward over both parties' weight pieces, which
// the serve protocol must reproduce bit for bit — and returns how many
// requests failed or disagreed.
func (r *serveRun) verify(recs []reqRec) (bad int, first error) {
	want := make(map[int][]float64)
	for _, rec := range recs {
		if rec.Err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("request %d: %w", rec.Seq, rec.Err)
			}
			continue
		}
		w, ok := want[rec.Row]
		if !ok {
			ref, err := r.p.PlainLogits([]*tensor.Dense{r.xa.RowSlice(rec.Row, rec.Row+1)}, r.xb.RowSlice(rec.Row, rec.Row+1))
			if err != nil {
				return len(recs), fmt.Errorf("reference logits: %w", err)
			}
			w = ref.Data
			want[rec.Row] = w
		}
		same := len(w) == len(rec.Logits)
		for i := 0; same && i < len(w); i++ {
			same = w[i] == rec.Logits[i]
		}
		if !same {
			bad++
			if first == nil {
				first = fmt.Errorf("request %d (row %d): served %v, reference %v", rec.Seq, rec.Row, rec.Logits, w)
			}
		}
	}
	return bad, first
}

func (r *serveRun) snapshot() counters {
	c := r.s.snapshot()
	st := r.srv.Stats()
	c.Served, c.Batches, c.Shed, c.SrvFailed = st.Served, st.Batches, st.Shed, st.Failed
	return c
}

// predictBatch returns a closure that runs one PredictBatch of the given
// height directly on the Predictor, bypassing the batcher: the protocol cost
// of one batch, against which request latency gives the queue wait.
func (r *serveRun) predictBatch(rows int) func() {
	xa, xb := r.xa.RowSlice(0, rows), r.xb.RowSlice(0, rows)
	return func() {
		if _, err := r.p.PredictBatch([]*tensor.Dense{xa}, xb); err != nil {
			panic(fmt.Sprintf("benchmark: replayed PredictBatch: %v", err))
		}
	}
}

// ------------------------------------------------------------------- replay

// replayItem is one lower-layer function of the program, timed on its own at
// a workload's key size and shapes.
type replayItem struct {
	Metric  string
	PerCall float64 // multiply a call's seconds by this to get the metric's unit
	Fn      func()
}

// sourceOut is the source layer's output width for a workload's model.
func sourceOut(w workload) int {
	if w.Model == "lr" {
		return 1
	}
	return w.Hidden
}

// buildReplay prepares the replay phase for a workload: each lower layer's
// exported functions, on operands of the shape the workload's step (or serve
// batch of opBatch requests) hands them, under the label party's key. The
// kernel variant is the one the step really calls: packed for the dense
// layer, CSR for the sparse layer (which ignores packing), unpacked dense for
// the Embed-MatMul layer's matmul half.
func buildReplay(w workload, keys keyPair, opBatch int, seed int64) ([]replayItem, func(), error) {
	r := rng.New(seed, "benchmark-replay")
	pk, sk := &keys.B.PublicKey, keys.B
	in, out, batch := w.Feats/2, sourceOut(w), w.Batch
	if w.Serve {
		batch = opBatch
	}
	const ms, us = 1e3, 1e6
	var items []replayItem
	add := func(metric string, perCall float64, fn func()) {
		items = append(items, replayItem{metric, perCall, fn})
	}

	// paillier: single operations.
	m := big.NewInt(424242)
	c0, err := pk.Encrypt(paillier.Rand, m)
	if err != nil {
		return nil, nil, err
	}
	dotLen := in
	switch {
	case w.Model == "wdl":
		dotLen = w.CatFields / 2 * w.EmbDim
	case w.AvgNNZ < w.Feats:
		dotLen = w.AvgNNZ / 2
	}
	cs := make([]*paillier.Ciphertext, dotLen)
	es := make([]paillier.SignedExp, dotLen)
	for i := range cs {
		if cs[i], err = paillier.EncryptPooled(pk, big.NewInt(r.Int63n(1<<30))); err != nil {
			return nil, nil, err
		}
		es[i] = paillier.SignedExp{Mag: new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 45)), Neg: r.Intn(2) == 0}
	}
	add("paillier.enc_us", us, func() {
		if _, err := pk.Encrypt(paillier.Rand, m); err != nil {
			panic(err)
		}
	})
	add("paillier.pool_enc_us", us, func() {
		if _, err := paillier.EncryptPooled(pk, m); err != nil {
			panic(err)
		}
	})
	// A pooled encryption's real cost is its refill, paid on background
	// workers that share the cores with the parties: drain a few slots, wait
	// for them to come back, and charge the wall time to every worker.
	const drain = 32
	add("paillier.pool_refill_us", us*goMaxProcs/drain, func() {
		for i := 0; i < drain; i++ {
			if _, err := paillier.EncryptPooled(pk, m); err != nil {
				panic(err)
			}
		}
		paillier.PoolFor(pk).WaitAvailable(poolCapacity)
	})
	add("paillier.dec_us", us, func() { sk.Decrypt(c0) })
	add("paillier.dotrow_us", us, func() { pk.DotRow(cs, es) })

	// hetensor: the kernels at the step's shape.
	x := tensor.RandDense(r, batch, in, 1)
	wgt := tensor.RandDense(r, in, out, 0.1)
	grad := tensor.RandDense(r, batch, out, 0.01)
	var wire any // one ciphertext matrix of the step's shape, for the codec
	switch {
	case w.Serve:
		v := hetensor.Encrypt(pk, wgt, 1)
		v.MintID() // fixed weights: one identity, so the table cache hits
		prod := hetensor.ServeProducts(x, v)
		add("hetensor.serve_products_ms", ms, func() { hetensor.ServeProducts(x, v) })
		add("hetensor.encrypt_ms", ms, func() { hetensor.ServeMask(r, prod) })
		add("hetensor.decrypt_ms", ms, func() { hetensor.DecryptPackedInts(sk, prod) })
		wire = prod
	case w.Model == "mlp":
		pw := hetensor.PackEncrypt(pk, wgt, 1)
		pg := hetensor.PackEncrypt(pk, grad, 1)
		// Training re-encrypts the weights every step, so every step's
		// matrix has a new identity: mint one per call, as a received
		// matrix gets.
		add("hetensor.matmul_ms", ms, func() { pw.MintID(); hetensor.MulPlainLeftPacked(x, pw) })
		add("hetensor.tmatmul_ms", ms, func() { pg.MintID(); hetensor.TransposeMulLeftPacked(x, pg) })
		add("hetensor.encrypt_ms", ms, func() { hetensor.PackEncrypt(pk, grad, 1) })
		add("hetensor.decrypt_ms", ms, func() { hetensor.DecryptPacked(sk, pg) })
		wire = pg
	case w.Model == "wdl":
		ein := w.CatFields / 2 * w.EmbDim
		ex := tensor.RandDense(r, batch, ein, 1)
		ev := hetensor.Encrypt(pk, tensor.RandDense(r, ein, out, 0.1), 1)
		eg := hetensor.Encrypt(pk, grad, 1)
		table := hetensor.PackEncrypt(pk, tensor.RandDense(r, w.CatVocab, w.EmbDim, 0.1), 1)
		gradE := hetensor.Encrypt(pk, tensor.RandDense(r, batch, ein, 0.01), 2)
		cat := tensor.NewIntMatrix(batch, w.CatFields/2)
		for i := range cat.Data {
			cat.Data[i] = r.Intn(w.CatVocab)
		}
		add("hetensor.matmul_ms", ms, func() { ev.MintID(); hetensor.MulPlainLeft(ex, ev) })
		add("hetensor.tmatmul_ms", ms, func() { eg.MintID(); hetensor.TransposeMulLeft(ex, eg) })
		add("hetensor.encrypt_ms", ms, func() { hetensor.Encrypt(pk, grad, 1) })
		add("hetensor.decrypt_ms", ms, func() { hetensor.Decrypt(sk, eg) })
		add("hetensor.lookup_ms", ms, func() {
			hetensor.LookupPacked(table, cat)
			hetensor.LookupBackward(gradE, cat, w.CatVocab, w.EmbDim)
		})
		wire = eg
	default: // sparse lr
		sx := tensor.RandCSR(r, batch, in, w.AvgNNZ/2)
		touched := touchedColumns(sx)
		rows := hetensor.EncryptRows(pk, wgt, touched, 1)
		v := &hetensor.CipherMatrix{Rows: in, Cols: out, Scale: 1, PK: pk, C: make([]*paillier.Ciphertext, in*out)}
		for i, k := range touched {
			copy(v.C[k*out:(k+1)*out], rows.C[i*out:(i+1)*out])
		}
		eg := hetensor.Encrypt(pk, grad, 1)
		add("hetensor.matmul_ms", ms, func() { hetensor.MulPlainLeftCSR(sx, v) })
		add("hetensor.tmatmul_ms", ms, func() { hetensor.TransposeMulLeftCSRSubset(sx, eg, touched) })
		add("hetensor.encrypt_ms", ms, func() { hetensor.Encrypt(pk, grad, 1) })
		add("hetensor.decrypt_ms", ms, func() { hetensor.Decrypt(sk, eg) })
		wire = eg
	}

	// protocol: one conversion at the step's shape, both peers on a Pair.
	pa, pb, err := protocol.Pipe(keys.A, keys.B, rng.Derive(seed, "benchmark-replay-session"))
	if err != nil {
		return nil, nil, err
	}
	both := func(fa, fb func()) func() {
		return func() {
			if err := protocol.RunParties(pa, pb, fa, fb); err != nil {
				panic(fmt.Sprintf("benchmark: replayed conversion: %v", err))
			}
		}
	}
	piece := tensor.RandDense(r, batch, out, 1)
	switch {
	case w.Serve:
		// The serve path masks in the integer domain (ServeMask above); it
		// runs neither conversion.
	case w.Model == "mlp":
		held := hetensor.PackEncrypt(pk, piece, 2) // ⟦v⟧ under B's key, held by A
		add("protocol.he2ss_ms", ms, both(func() { pa.HE2SSSendPackedStream(held) }, func() { pb.HE2SSRecvPackedStream() }))
		add("protocol.ss2he_ms", ms, both(func() { pa.SS2HEStream(piece, 1) }, func() { pb.SS2HEStream(piece, 1) }))
	case w.Model == "wdl":
		held := hetensor.Encrypt(pk, piece, 2)
		add("protocol.he2ss_ms", ms, both(func() { pa.HE2SSSendStream(held) }, func() { pb.HE2SSRecvStream() }))
		add("protocol.ss2he_ms", ms, both(func() { pa.SS2HEStream(piece, 1) }, func() { pb.SS2HEStream(piece, 1) }))
	default:
		held := hetensor.Encrypt(pk, piece, 2)
		add("protocol.he2ss_ms", ms, both(func() { pa.HE2SSSend(held) }, func() { pb.HE2SSRecv() }))
		add("protocol.ss2he_ms", ms, both(func() { pa.SS2HE(piece, 1) }, func() { pb.SS2HE(piece, 1) }))
	}

	// transport: the gob codec on one ciphertext matrix, over net.Pipe.
	n1, n2 := net.Pipe()
	ga, gb := transport.NewGobConn(n1), transport.NewGobConn(n2)
	kb := float64(transport.WireSize(wire)) / 1024
	add("transport.gob_us_per_kb", us/kb, func() {
		if err := ga.Send(wire); err != nil {
			panic(err)
		}
		if _, err := gb.Recv(); err != nil {
			panic(err)
		}
	})

	// The gob endpoints each own a writer goroutine; closing stops it. What
	// Close reports over net.Pipe is the other end's close, and the replay is
	// over either way.
	cleanup := func() {
		//blindfl:allow teardown benchmark-owned codec endpoints over net.Pipe, no protocol session on them
		_ = ga.Close()
		//blindfl:allow teardown benchmark-owned codec endpoints over net.Pipe, no protocol session on them
		_ = gb.Close()
	}
	return items, cleanup, nil
}

func touchedColumns(x *tensor.CSR) []int {
	seen := make(map[int]bool)
	var out []int
	for _, k := range x.ColIdx {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// layerCalls is how many times one operation — a federated step counting both
// parties, or one serve batch — calls each replayed kernel, and how many
// ciphertexts it decrypts, read off internal/core's protocol code. With the
// encryption count, which the pools measure, it turns the replayed times into
// an estimate of where the operation's compute goes. Calls the replay does
// not cover (mask and share arithmetic, MulPlainRightTranspose, the wide
// part's CSR kernels under WDL, scheduling) fall into the stated remainder.
type layerCalls struct{ Matmul, TMatmul, Lookup, ServeProducts, Decrypts float64 }

func callsPerOp(w workload, lanes, opBatch int) layerCalls {
	groups := func(cols int) float64 { return math.Ceil(float64(cols) / float64(lanes)) }
	in, out, b := float64(w.Feats/2), float64(sourceOut(w)), float64(w.Batch)
	sparse := func(out float64) float64 { // decrypts of one sparse step: two forward shares, one touched-row gradient
		return 2*b*out + math.Min(in, b*float64(w.AvgNNZ)/2)*out
	}
	switch {
	case w.Serve:
		return layerCalls{ServeProducts: 2, Decrypts: 2 * out * groups(opBatch)}
	case w.Model == "mlp":
		return layerCalls{Matmul: 2, TMatmul: 1, Decrypts: groups(int(out)) * (2*b + in)}
	case w.Model == "wdl":
		fields, dim, vocab := float64(w.CatFields/2), float64(w.EmbDim), float64(w.CatVocab)
		embed := 2*b*fields*groups(w.EmbDim) + 4*b*out + 2*fields*dim*out + 2*vocab*dim
		return layerCalls{Matmul: 4, TMatmul: 2, Lookup: 2, Decrypts: sparse(1) + embed}
	}
	return layerCalls{Matmul: 2, TMatmul: 1, Decrypts: sparse(out)}
}

// labelKeyLanes is the packing width under the label party's key.
func labelKeyLanes(keys keyPair) int { return hetensor.Lanes(&keys.B.PublicKey) }
