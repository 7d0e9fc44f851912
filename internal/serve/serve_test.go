package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/engine"
	"blindfl/internal/hetensor"
	"blindfl/internal/model"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// newTestPredictor trains a small LR model to a checkpoint and restores a
// Predictor for it on a fresh two-party pipe.
func newTestPredictor(t *testing.T, seed int64) (*model.Predictor, *data.Dataset) {
	t.Helper()
	spec := data.Spec{Name: "t-serve", Feats: 12, AvgNNZ: 12, Classes: 2, Train: 96, Test: 48}
	ds := data.Generate(spec, 21)
	h := model.DefaultHyper()
	h.Epochs = 2
	h.Batch = 32
	h.Seed = 1

	skA, skB := protocol.TestKeys()
	pa, pb, err := protocol.Pipe(skA, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := (model.Trainer{Kind: model.LR, Hyper: h, Checkpoint: &buf}).Train(ds, model.Pair(pa, pb)); err != nil {
		t.Fatal(err)
	}
	pa2, pb2, err := protocol.Pipe(skA, skB, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := model.NewPredictor(bytes.NewReader(buf.Bytes()), model.Pair(pa2, pb2))
	if err != nil {
		t.Fatal(err)
	}
	return p, ds
}

func testRequest(ds *data.Dataset, r int) Request {
	return Request{
		XAs: []*tensor.Dense{ds.TestA.Dense.RowSlice(r, r+1)},
		XB:  ds.TestB.Dense.RowSlice(r, r+1),
	}
}

// TestServeConcurrentRequests: concurrent single-request callers sharing one
// batcher/session must each get back exactly their own row's logits, and the
// batcher must have coalesced them into fewer protocol batches than requests
// (cross-request lane batching). Run under -race by the repo's test target.
func TestServeConcurrentRequests(t *testing.T) {
	p, ds := newTestPredictor(t, 700)
	want, err := p.PlainLogits([]*tensor.Dense{ds.TestA.Dense}, ds.TestB.Dense)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(p, Config{FlushInterval: 50 * time.Millisecond})
	defer s.Close()

	n := 3 * p.Lanes()
	if n > ds.TestB.Dense.Rows {
		n = ds.TestB.Dense.Rows
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp := s.Predict(testRequest(ds, i))
			if resp.Err != nil {
				errs[i] = resp.Err
				return
			}
			for c := 0; c < want.Cols; c++ {
				if resp.Logits.At(0, c) != want.At(i, c) {
					t.Errorf("request %d: logit[%d] = %v, want exactly %v", i, c, resp.Logits.At(0, c), want.At(i, c))
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Served != int64(n) {
		t.Fatalf("served %d of %d", st.Served, n)
	}
	if st.Batches >= int64(n) {
		t.Fatalf("no cross-request batching: %d batches for %d concurrent requests", st.Batches, n)
	}
}

// TestServeBatchingAmortizes: under 2K closed-loop clients the batcher runs
// full lane groups, so N requests cost at most ⌈N/2⌉ protocol batches — the
// per-group mask encryption, transfer and decryption paid once for several
// requests; after warm-up the encrypted weights' dot tables are served from
// the cache (hits, no new misses); and the latency percentiles are ordered.
// Counts, not wall time: the flush interval is long enough that a lane group
// only launches full, except when a scheduling stall outlasts it.
func TestServeBatchingAmortizes(t *testing.T) {
	p, ds := newTestPredictor(t, 740)
	k := p.Lanes()
	if k < 2 {
		t.Fatalf("%d lanes: nothing to batch", k)
	}
	prev := hetensor.SetTableCacheBudget(64 << 20)
	defer hetensor.SetTableCacheBudget(prev)
	s := NewServer(p, Config{FlushInterval: time.Second})
	defer s.Close()
	req := func(i int) Request { return testRequest(ds, i%ds.TestB.Dense.Rows) }

	RunLoad(s, req, 2*k, 4*k) // warm-up: the weight tables are admitted and built
	b0, c0 := s.Stats().Batches, hetensor.TableCacheStatsNow()
	const n = 32
	res := RunLoad(s, req, 2*k, n)
	b1, c1 := s.Stats().Batches, hetensor.TableCacheStatsNow()

	if res.OK != n {
		t.Fatalf("served %d of %d (shed %d, failed %d)", res.OK, n, res.Shed, res.Failed)
	}
	if batches := b1 - b0; batches > (n+1)/2 {
		t.Fatalf("%d requests took %d protocol batches at %d lanes, want at most %d", n, batches, k, (n+1)/2)
	}
	if c1.Hits == c0.Hits || c1.Misses != c0.Misses {
		t.Fatalf("steady state: %d cache hits, %d new misses; want hits and no misses", c1.Hits-c0.Hits, c1.Misses-c0.Misses)
	}
	if res.P50 <= 0 || res.P95 < res.P50 || res.P99 < res.P95 {
		t.Fatalf("unordered percentiles p50=%v p95=%v p99=%v", res.P50, res.P95, res.P99)
	}
}

// TestServeSpotCheck: the integrity spot-check must run and never mismatch —
// the serve path is exact, so the plaintext reference agrees bit for bit.
func TestServeSpotCheck(t *testing.T) {
	p, ds := newTestPredictor(t, 710)
	s := NewServer(p, Config{SpotCheck: true, FlushInterval: 10 * time.Millisecond})
	defer s.Close()

	res := RunLoad(s, func(i int) Request { return testRequest(ds, i%ds.TestB.Dense.Rows) }, 2*p.Lanes(), 4*p.Lanes())
	if res.OK != res.Sent {
		t.Fatalf("served %d of %d (shed %d, failed %d)", res.OK, res.Sent, res.Shed, res.Failed)
	}
	if res.P50 <= 0 || res.P95 < res.P50 || res.P99 < res.P95 {
		t.Fatalf("implausible percentiles p50=%v p95=%v p99=%v", res.P50, res.P95, res.P99)
	}
	st := s.Stats()
	if st.SpotChecks == 0 {
		t.Fatal("spot-check enabled but never ran")
	}
	if st.Mismatches != 0 {
		t.Fatalf("%d integrity mismatches on an honest run", st.Mismatches)
	}
}

// TestServeShedsOnPoolDepth: with backpressure keyed on the blinding pool,
// requests arriving while the pool is below the watermark are shed with
// ErrOverloaded instead of queueing.
func TestServeShedsOnPoolDepth(t *testing.T) {
	p, ds := newTestPredictor(t, 720)
	_, skB := protocol.TestKeys()
	engine.Options{Pool: 2}.SetupKeys(skB)
	s := NewServer(p, Config{MinPool: 1 << 20})
	defer s.Close()

	resp := s.Predict(testRequest(ds, 0))
	if resp.Err != ErrOverloaded {
		t.Fatalf("expected ErrOverloaded under pool backpressure, got %v", resp.Err)
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("shed counter = %d", s.Stats().Shed)
	}
}

// TestServeRejectsMalformedRequest: shape errors are caught at admission so
// one bad request cannot poison a batch.
func TestServeRejectsMalformedRequest(t *testing.T) {
	p, _ := newTestPredictor(t, 730)
	s := NewServer(p, Config{})
	defer s.Close()
	bad := Request{XAs: []*tensor.Dense{tensor.NewDense(1, 3)}, XB: tensor.NewDense(1, 2)}
	if resp := s.Predict(bad); resp.Err == nil {
		t.Fatal("malformed request accepted")
	}
}

// TestServeLoneCallerRunsAtOnce: a batch that holds every caller inside
// Predict closes at once, so one closed-loop caller never waits out the
// flush interval — eight sequential requests under a one-second interval
// finish in well under a second, one protocol batch each, every logit exact.
func TestServeLoneCallerRunsAtOnce(t *testing.T) {
	p, ds := newTestPredictor(t, 750)
	want, err := p.PlainLogits([]*tensor.Dense{ds.TestA.Dense}, ds.TestB.Dense)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(p, Config{FlushInterval: time.Second})
	defer s.Close()

	const n = 8
	start := time.Now()
	for i := 0; i < n; i++ {
		resp := s.Predict(testRequest(ds, i))
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		for c := 0; c < want.Cols; c++ {
			if resp.Logits.At(0, c) != want.At(i, c) {
				t.Fatalf("request %d: logit[%d] = %v, want exactly %v", i, c, resp.Logits.At(0, c), want.At(i, c))
			}
		}
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("%d sequential requests took %v: a lone caller waited for the flush interval", n, d)
	}
	if st := s.Stats(); st.Batches != n {
		t.Fatalf("%d sequential requests ran as %d protocol batches, want %d", n, st.Batches, n)
	}
}

// TestServeFewCallersRunAtOnce: K−1 closed-loop clients can never fill a
// lane group, yet no batch waits out the one-second flush interval: a batch
// closes once it holds every caller inside Predict, and a caller that has
// left is no longer waited for. One request more than a multiple of the
// client count makes the last batch hold a caller whose peers have left.
func TestServeFewCallersRunAtOnce(t *testing.T) {
	p, ds := newTestPredictor(t, 760)
	k := p.Lanes()
	if k < 3 {
		t.Fatalf("%d lanes: too few to leave a lane group partial with several callers", k)
	}
	const interval = time.Second
	s := NewServer(p, Config{FlushInterval: interval})
	defer s.Close()
	req := func(i int) Request { return testRequest(ds, i%ds.TestB.Dense.Rows) }

	n := 3*(k-1) + 1
	for round := 0; round < 5; round++ {
		res := RunLoad(s, req, k-1, n)
		if res.OK != n {
			t.Fatalf("round %d: served %d of %d (shed %d, failed %d)", round, res.OK, n, res.Shed, res.Failed)
		}
		if res.Duration >= interval {
			t.Fatalf("round %d: %d requests from %d callers took %v: a batch waited for the flush interval",
				round, n, k-1, res.Duration)
		}
	}
}

// TestServeCloseTwice: Close is idempotent, and a request after it gets
// ErrClosed.
func TestServeCloseTwice(t *testing.T) {
	p, ds := newTestPredictor(t, 770)
	s := NewServer(p, Config{})
	s.Close()
	s.Close()
	if resp := s.Predict(testRequest(ds, 0)); resp.Err != ErrClosed {
		t.Fatalf("Predict after Close: got %v, want ErrClosed", resp.Err)
	}
}
