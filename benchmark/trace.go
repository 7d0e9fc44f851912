package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing from outside the program: spans are recorded by the benchmark's own
// code around the calls it makes into each layer, and by a connection wrapper
// that sits where the protocol meets the transport. They stay in memory until
// the run ends. Spans inside the program (internal/obs) are a later change.

// span is one timed interval on one track (a party's goroutine, a client).
type span struct {
	ID     int // 1-based; 0 means "no span"
	Parent int
	Name   string
	Track  string
	Op     int // step or request index the span belongs to
	Start  time.Duration
	End    time.Duration
	Bytes  int // message size for Send/Recv spans
}

// tracer collects spans while on. A nil tracer and a tracer that is off both
// record nothing, so untraced runs pay one atomic load per call site.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the time since the tracer's epoch; every op and span uses it, so the
// end-to-end window and the spans share one clock.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) begin(name, track string, parent, op int) int {
	if !t.enabled() {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Track: track, Op: op, Start: start, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id, bytes int) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Bytes = bytes
	t.mu.Unlock()
}

// finished returns a copy of the spans that have ended.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// conn is the method set of the program's transport connection, restated here
// so the wrapper needs no import of the program (drive.go hands it over).
type conn interface {
	Send(v any) error
	Recv() (any, error)
	Stats() (msgs, bytes int64)
	Close() error
}

// tracedConn wraps one endpoint. While the tracer is on it records a child
// span per Send and Recv under the party's current step span, and counts
// messages, bytes and time blocked in Recv. A Conn wrapper cannot tell wire
// time from waiting for the peer's compute; time in Recv is "blocked", and
// the wire's share is measured separately (transport.wire_share).
type tracedConn struct {
	inner conn
	tr    *tracer
	track string
	size  func(any) int // the program's wire-size estimate

	parent atomic.Int64 // span the party is inside (set by the driver)
	op     atomic.Int64

	msgs    atomic.Int64
	bytes   atomic.Int64
	blocked atomic.Int64 // ns inside Recv
}

// enter tells the wrapper which span the party's next messages belong to.
func (c *tracedConn) enter(spanID, op int) {
	c.parent.Store(int64(spanID))
	c.op.Store(int64(op))
}

func (c *tracedConn) Send(v any) error {
	if !c.tr.enabled() {
		return c.inner.Send(v)
	}
	n := c.size(v)
	id := c.tr.begin("Send", c.track, int(c.parent.Load()), int(c.op.Load()))
	err := c.inner.Send(v)
	c.tr.end(id, n)
	c.msgs.Add(1)
	c.bytes.Add(int64(n))
	return err
}

func (c *tracedConn) Recv() (any, error) {
	if !c.tr.enabled() {
		return c.inner.Recv()
	}
	id := c.tr.begin("Recv", c.track, int(c.parent.Load()), int(c.op.Load()))
	t0 := time.Now()
	v, err := c.inner.Recv()
	c.blocked.Add(int64(time.Since(t0)))
	n := 0
	if err == nil {
		n = c.size(v)
	}
	c.tr.end(id, n)
	return v, err
}

func (c *tracedConn) Stats() (int64, int64) { return c.inner.Stats() }
func (c *tracedConn) Close() error          { return c.inner.Close() }

// connCounters is a snapshot of a wrapper's counters.
type connCounters struct {
	Msgs, Bytes int64
	Blocked     time.Duration
}

func (c *tracedConn) counters() connCounters {
	if c == nil {
		return connCounters{}
	}
	return connCounters{Msgs: c.msgs.Load(), Bytes: c.bytes.Load(), Blocked: time.Duration(c.blocked.Load())}
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one thread per
// track.
func writeChromeTrace(path, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := make(map[string]int)
	var events []event
	for _, s := range spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.Track}})
		}
		events = append(events, event{
			Name: s.Name, Cat: workload, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "bytes": s.Bytes},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
