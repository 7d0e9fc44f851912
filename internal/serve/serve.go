// Package serve is the blindfl-serve runtime: an online encrypted-inference
// service the label party runs over a trained vertical model. Concurrent
// single-request callers are batched into the K ciphertext packing lanes —
// cross-request lane batching, so a full lane group costs the same
// homomorphic work as one request — and executed over the Predictor's
// persistent serve sessions, whose long-lived encrypted weight pieces keep
// the dot-table cache warm on every query. A batch closes when it is full,
// when the flush interval runs out, or as soon as every caller inside
// Predict has joined it, so a lone caller never waits for company that
// cannot come. Admission control sheds load when the queue is full or the
// label party's blinding pool runs dry, and an AHEAD-style opt-in integrity
// spot-check re-verifies one random request per batch against the plaintext
// forward path.
package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blindfl/internal/model"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// ErrOverloaded is returned to a request shed by admission control (queue
// full, or the blinding pool is below the configured depth).
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// ErrClosed is returned to requests still pending when the server shuts down.
var ErrClosed = errors.New("serve: server closed")

// Config tunes the request batcher and admission control. The zero value
// serves with lane-width batches, a short flush interval, a queue of a few
// batches, no pool-depth shedding and no spot-checks.
type Config struct {
	// MaxBatch caps the requests per protocol batch. 0 means the
	// Predictor's lane width — the packing-optimal choice: a batch of one
	// lane group costs the same homomorphic work as a single request.
	// Raising it trades per-request latency for throughput by running
	// several lane groups per protocol round trip.
	MaxBatch int

	// FlushInterval bounds how long a partial batch waits for more
	// requests. A batch that already holds every caller inside Predict
	// runs at once, since no one else can join it. 0 means 2ms.
	FlushInterval time.Duration

	// MaxQueue is the pending-request queue depth; requests arriving when
	// it is full are shed with ErrOverloaded. 0 means 4×MaxBatch.
	MaxQueue int

	// MinPool, when positive, sheds requests while the label party's
	// blinding pool has fewer than this many precomputed blindings
	// buffered — backpressure keyed on the pool's refill rate, so bursts
	// degrade gracefully instead of queueing behind slow inline
	// exponentiations. Ignored when no pool is registered for the key.
	MinPool int

	// SpotCheck enables the AHEAD-style integrity check: one random
	// request per batch is re-verified against the plaintext forward path
	// (Predictor.PlainLogits); mismatches are counted in Stats. The check
	// runs on the batch goroutine after responses are delivered, so it
	// costs throughput headroom, not request latency.
	SpotCheck bool
}

// Request is one user's inference request: a single feature row per party.
// XAs[i] is feature party i's 1×inAs[i] slice of the request; XB the label
// party's 1×inB slice.
type Request struct {
	XAs []*tensor.Dense
	XB  *tensor.Dense
}

// Response carries the request's logits row (1×out) or an error.
type Response struct {
	Logits *tensor.Dense
	Err    error
}

// Stats snapshots the server's counters.
type Stats struct {
	Served     int64 // requests answered with logits
	Batches    int64 // protocol batches run
	Shed       int64 // requests rejected by admission control
	Failed     int64 // requests answered with a protocol error
	SpotChecks int64 // integrity re-verifications run
	Mismatches int64 // integrity re-verifications that disagreed
}

type pending struct {
	req  Request
	resp chan Response
}

// Server batches concurrent inference requests over one Predictor.
type Server struct {
	p   *model.Predictor
	cfg Config

	reqs      chan *pending
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// inflight counts the callers inside Predict from the moment they
	// commit to the queue until they return; left nudges a collecting
	// batcher when one of them returns.
	inflight atomic.Int64
	left     chan struct{}

	served     atomic.Int64
	batches    atomic.Int64
	shed       atomic.Int64
	failed     atomic.Int64
	spotChecks atomic.Int64
	mismatches atomic.Int64
}

// NewServer starts the batcher over a restored Predictor. Close releases it.
func NewServer(p *model.Predictor, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = p.Lanes()
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 2 * time.Millisecond
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxBatch
	}
	s := &Server{
		p: p, cfg: cfg,
		reqs: make(chan *pending, cfg.MaxQueue),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		left: make(chan struct{}, 1),
	}
	go s.batcher()
	return s
}

// Predict submits one request and blocks until its response: the closed-loop
// client call. Safe for arbitrary concurrency; concurrent callers are what
// fills the packing lanes.
func (s *Server) Predict(req Request) Response {
	if err := s.checkReq(req); err != nil {
		return Response{Err: err}
	}
	if s.cfg.MinPool > 0 {
		if pool := paillier.PoolFor(s.p.LabelPK()); pool != nil && pool.Stats().Available < s.cfg.MinPool {
			s.shed.Add(1)
			return Response{Err: ErrOverloaded}
		}
	}
	s.inflight.Add(1)
	defer s.leave()
	p := &pending{req: req, resp: make(chan Response, 1)}
	select {
	case s.reqs <- p:
	default:
		s.shed.Add(1)
		return Response{Err: ErrOverloaded}
	}
	select {
	case r := <-p.resp:
		return r
	case <-s.done:
		// The batcher drains the queue on shutdown, so a response may still
		// be in flight; prefer it over the shutdown signal.
		select {
		case r := <-p.resp:
			return r
		default:
			return Response{Err: ErrClosed}
		}
	}
}

// leave un-counts a caller on its way out of Predict and nudges the batcher,
// whose open batch may now hold everyone still inside.
func (s *Server) leave() {
	s.inflight.Add(-1)
	select {
	case s.left <- struct{}{}:
	default:
	}
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Served: s.served.Load(), Batches: s.batches.Load(),
		Shed: s.shed.Load(), Failed: s.failed.Load(),
		SpotChecks: s.spotChecks.Load(), Mismatches: s.mismatches.Load(),
	}
}

// Close stops the batcher; requests still queued are answered ErrClosed.
// Closing twice is a no-op.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	<-s.done
}

// batcher is the single goroutine that fills lane groups across concurrent
// requests: it blocks for the first request, then collects more until the
// batch holds MaxBatch requests, or holds every caller inside Predict (no
// one else can join), or FlushInterval elapses, and runs them as one
// protocol batch. A caller the last batch answered counts until its Predict
// returns, so a closed-loop client that re-enters at once still joins the
// next batch.
func (s *Server) batcher() {
	defer close(s.done)
	spotRng := rand.New(rand.NewSource(4242)) // the spot-check request picks
	for {
		select {
		case <-s.quit:
			s.drain()
			return
		case first := <-s.reqs:
			batch := []*pending{first}
			timer := time.NewTimer(s.cfg.FlushInterval)
		collect:
			for len(batch) < s.cfg.MaxBatch && int64(len(batch)) < s.inflight.Load() {
				select {
				case p := <-s.reqs:
					batch = append(batch, p)
				case <-s.left:
				case <-timer.C:
					break collect
				case <-s.quit:
					break collect
				}
			}
			timer.Stop()
			s.runBatch(batch, spotRng)
		}
	}
}

func (s *Server) drain() {
	for {
		select {
		case p := <-s.reqs:
			p.resp <- Response{Err: ErrClosed}
		default:
			return
		}
	}
}

// runBatch stacks the batch's per-party feature rows, runs one federated
// serve forward, and fans the logits rows back out to the callers.
func (s *Server) runBatch(batch []*pending, spotRng *rand.Rand) {
	s.batches.Add(1)
	k := s.p.K()
	xAs := make([]*tensor.Dense, k)
	for i := 0; i < k; i++ {
		i := i
		xAs[i] = stackRows(batch, func(p *pending) *tensor.Dense { return p.req.XAs[i] })
	}
	xB := stackRows(batch, func(p *pending) *tensor.Dense { return p.req.XB })
	logits, err := s.p.PredictBatch(xAs, xB)
	if err != nil {
		s.failed.Add(int64(len(batch)))
		for _, p := range batch {
			p.resp <- Response{Err: err}
		}
		return
	}
	for j, p := range batch {
		p.resp <- Response{Logits: logits.RowSlice(j, j+1).Clone()}
	}
	s.served.Add(int64(len(batch)))
	if s.cfg.SpotCheck {
		s.spotCheckOne(logits, xAs, xB, spotRng)
	}
}

// spotCheckOne re-verifies one random request of the batch against the
// plaintext forward path. The serve protocol is exact, so any deviation —
// not just a large one — is a mismatch.
func (s *Server) spotCheckOne(logits *tensor.Dense, xAs []*tensor.Dense, xB *tensor.Dense, rng *rand.Rand) {
	j := rng.Intn(xB.Rows)
	rowAs := make([]*tensor.Dense, len(xAs))
	for i, x := range xAs {
		rowAs[i] = x.RowSlice(j, j+1)
	}
	want, err := s.p.PlainLogits(rowAs, xB.RowSlice(j, j+1))
	s.spotChecks.Add(1)
	if err != nil {
		s.mismatches.Add(1)
		return
	}
	got := logits.RowSlice(j, j+1)
	for t := range want.Data {
		if got.Data[t] != want.Data[t] {
			s.mismatches.Add(1)
			return
		}
	}
}

// checkReq validates one request's shape against the model before it can
// join (and poison) a batch.
func (s *Server) checkReq(req Request) error {
	inAs := s.p.InAs()
	if len(req.XAs) != len(inAs) {
		return fmt.Errorf("serve: request spans %d feature parties, model has %d", len(req.XAs), len(inAs))
	}
	for i, x := range req.XAs {
		if x == nil || x.Rows != 1 || x.Cols != inAs[i] {
			return fmt.Errorf("serve: feature party %d row must be 1×%d", i, inAs[i])
		}
	}
	if req.XB == nil || req.XB.Rows != 1 || req.XB.Cols != s.p.InB() {
		return fmt.Errorf("serve: label party row must be 1×%d", s.p.InB())
	}
	return nil
}

// stackRows stacks the batch's 1×w rows into a len(batch)×w matrix.
func stackRows(batch []*pending, row func(*pending) *tensor.Dense) *tensor.Dense {
	cols := row(batch[0]).Cols
	out := tensor.NewDense(len(batch), cols)
	for j, p := range batch {
		copy(out.Row(j), row(p).Row(0))
	}
	return out
}
