// Network simulation: an in-process pair with a propagation-delay and
// serialization-bandwidth model. SimPair lets single-machine benchmarks
// measure what chunk streaming buys on a real link — while a message is "on
// the wire" the receiver sleeps (releasing the CPU), so compute genuinely
// overlaps communication even on one core. The paper's two-party deployment
// is cross-datacenter; this is the cheapest honest stand-in.
package transport

import (
	"math/big"
	"sync"
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// simMsg is a message annotated with the time it finishes arriving.
type simMsg struct {
	v         any
	deliverAt time.Time
}

// simConn is one endpoint of a simulated link. Sends are asynchronous (as on
// the gob transport, whose writer goroutine drains a queue): the sender only
// pays the serialization-bandwidth cost into the delivery timestamp, and the
// receiver blocks until that timestamp passes.
type simConn struct {
	in    <-chan simMsg
	out   chan<- simMsg
	state *pairState

	latency time.Duration
	bps     float64

	mu       sync.Mutex
	msgs     int64
	bytes    int64
	lineFree time.Time // when this direction's line is free to start sending
}

// SimPair returns two in-process endpoints joined by a full-duplex link with
// the given one-way propagation latency and per-direction bandwidth in
// bytes/second (0 = infinite). Message sizes are estimated with WireSize.
func SimPair(buffer int, latency time.Duration, bytesPerSec float64) (Conn, Conn) {
	ab := make(chan simMsg, buffer)
	ba := make(chan simMsg, buffer)
	st := &pairState{closed: make(chan struct{})}
	a := &simConn{in: ba, out: ab, state: st, latency: latency, bps: bytesPerSec}
	b := &simConn{in: ab, out: ba, state: st, latency: latency, bps: bytesPerSec}
	return a, b
}

func (c *simConn) Send(v any) error {
	select {
	case <-c.state.closed:
		return ErrClosed
	default:
	}
	size := WireSize(v)
	c.mu.Lock()
	now := time.Now()
	start := c.lineFree
	if start.Before(now) {
		start = now
	}
	transfer := time.Duration(0)
	if c.bps > 0 {
		transfer = time.Duration(float64(size) / c.bps * float64(time.Second))
	}
	c.lineFree = start.Add(transfer) // bandwidth serializes this direction
	deliverAt := c.lineFree.Add(c.latency)
	c.msgs++
	c.bytes += int64(size)
	c.mu.Unlock()

	select {
	case <-c.state.closed:
		return ErrClosed
	case c.out <- simMsg{v: v, deliverAt: deliverAt}:
		return nil
	}
}

func (c *simConn) Recv() (any, error) {
	var m simMsg
	select {
	case m = <-c.in:
	default:
		select {
		case <-c.state.closed:
			return nil, ErrClosed
		case m = <-c.in:
		}
	}
	if wait := time.Until(m.deliverAt); wait > 0 {
		time.Sleep(wait) // the message is still on the wire
	}
	return m.v, nil
}

func (c *simConn) Stats() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs, c.bytes
}

func (c *simConn) Close() error {
	c.state.close()
	return nil
}

// WireSize estimates the gob wire footprint of a protocol message in bytes:
// payload sizes plus a small per-message framing allowance. It deliberately
// avoids running a real encoder — the estimate feeds the bandwidth model and
// the in-process byte counters, and must stay cheap next to big.Int math.
func WireSize(v any) int {
	const frame = 32 // envelope + type tag + field headers, roughly
	switch m := v.(type) {
	case nil:
		return frame
	case *tensor.Dense:
		return frame + 16 + 8*len(m.Data)
	case *tensor.CSR:
		return frame + 16 + 8*(len(m.RowPtr)+len(m.ColIdx)+len(m.Val))
	case *tensor.IntMatrix:
		return frame + 16 + 8*len(m.Data)
	case []int:
		return frame + 8*len(m)
	case []uint64:
		return frame + 8*len(m)
	case *paillier.PublicKey:
		return frame + bigSize(m.N) + bigSize(m.N2)
	case *paillier.Ciphertext:
		return frame + cipherSize(m)
	case *hetensor.Matrix:
		n := frame + 56 + WireSize(m.PK)
		for _, c := range m.C {
			n += cipherSize(c)
		}
		return n
	case *StreamHeader:
		return frame + 40
	case *StreamChunk:
		return frame + 24 + WireSize(m.V)
	case *StreamEnd:
		return frame + 8
	case *StreamAck:
		return frame + 16 + 8*len(m.Bad)
	case *Heartbeat:
		return frame
	case *Handshake:
		return frame + 8 + WireSize(m.V)
	default:
		return frame + 64 // unknown scalar-ish message
	}
}

func cipherSize(c *paillier.Ciphertext) int {
	if c == nil {
		return 8
	}
	return 8 + bigSize(c.C)
}

func bigSize(x *big.Int) int {
	if x == nil {
		return 8
	}
	return 8 + (x.BitLen()+7)/8
}
