// Package transport moves protocol messages between the two parties. A Conn
// is an ordered, reliable, bidirectional message pipe. Two implementations
// are provided: an in-process channel pair (Pair) used by tests, benchmarks
// and single-binary simulations, and a TCP transport with gob encoding
// (Listen/Dial) for genuinely distributed deployments.
//
// All message types that cross a Conn must be registered with gob; the
// package registers the tensor and ciphertext types used by the BlindFL
// protocols in init.
package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

func init() {
	gob.Register(&tensor.Dense{})
	gob.Register(&tensor.CSR{})
	gob.Register(&tensor.IntMatrix{})
	gob.Register(&hetensor.Matrix{})
	gob.Register(&hetensor.BigMatrix{})
	gob.Register(&paillier.PublicKey{})
	gob.Register(&paillier.Ciphertext{})
	gob.Register([]int(nil))
	gob.Register([]uint64(nil))
	gob.Register([][]uint64(nil))
}

// Conn is an ordered message pipe between exactly two parties.
type Conn interface {
	// Send transmits one message. The sender must not mutate v afterwards.
	Send(v any) error
	// Recv blocks for the next message.
	Recv() (any, error)
	// Stats returns cumulative message and byte counters. The in-process
	// Pair encodes nothing, so its byte counter stays at zero.
	Stats() (msgs, bytes int64)
	Close() error
}

// pairState is the shared lifecycle of both endpoints of a Pair: one closed
// channel AND one close-once. Sharing only the channel but not the once (as
// an earlier revision did) makes closing both ends panic with "close of
// closed channel".
type pairState struct {
	closed chan struct{}
	once   sync.Once
}

func (s *pairState) close() { s.once.Do(func() { close(s.closed) }) }

// chanConn is one endpoint of an in-process pair.
type chanConn struct {
	in    <-chan any
	out   chan<- any
	state *pairState
	msgs  atomic.Int64
}

// Pair returns two connected in-process endpoints with the given channel
// capacity. Messages are passed by reference: the protocols never mutate a
// value after sending it, so no copy is needed. Stats counts messages; its
// byte counter stays at zero (nothing is encoded).
func Pair(buffer int) (Conn, Conn) {
	ab := make(chan any, buffer)
	ba := make(chan any, buffer)
	st := &pairState{closed: make(chan struct{})}
	a := &chanConn{in: ba, out: ab, state: st}
	b := &chanConn{in: ab, out: ba, state: st}
	return a, b
}

// ErrClosed is returned by operations on a closed Conn.
var ErrClosed = errors.New("transport: connection closed")

func (c *chanConn) Send(v any) error {
	// Check for closure first so a Send after Close deterministically fails
	// even when the buffer has space.
	select {
	case <-c.state.closed:
		return ErrClosed
	default:
	}
	select {
	case <-c.state.closed:
		return ErrClosed
	case c.out <- v:
		c.msgs.Add(1)
		return nil
	}
}

func (c *chanConn) Recv() (any, error) {
	// Drain already-delivered messages before honouring closure.
	select {
	case v := <-c.in:
		return v, nil
	default:
	}
	select {
	case <-c.state.closed:
		return nil, ErrClosed
	case v := <-c.in:
		return v, nil
	}
}

func (c *chanConn) Stats() (int64, int64) { return c.msgs.Load(), 0 }

func (c *chanConn) Close() error {
	c.state.close()
	return nil
}

// gobConn is a TCP endpoint with gob framing. Sends are asynchronous: a
// single writer goroutine drains a buffered queue, so two peers that both
// send large ciphertext matrices before receiving cannot deadlock on full
// kernel socket buffers — the send ordering the federated protocols use
// (compute, send, then receive) stays safe over real networks.
type gobConn struct {
	c   net.Conn
	cw  *countWriter
	enc *gob.Encoder
	dec *gob.Decoder

	sendQ   chan envelope
	done    chan struct{} // closed by Close: stop accepting sends, start draining
	drained chan struct{} // closed by writeLoop once the queue is flushed
	recvMu  sync.Mutex
	mu      sync.Mutex
	msgs    int64
	err     error
	once    sync.Once
}

// envelope wraps messages so any registered concrete type can cross the wire.
type envelope struct{ V any }

// NewGobConn wraps an established net.Conn (or any io.ReadWriteCloser
// satisfying net.Conn) as a transport Conn.
func NewGobConn(c net.Conn) Conn {
	cw := &countWriter{w: c}
	g := &gobConn{
		c: c, cw: cw,
		enc:     gob.NewEncoder(cw),
		dec:     gob.NewDecoder(c),
		sendQ:   make(chan envelope, 256),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	go g.writeLoop()
	return g
}

// flushTimeout bounds how long Close waits for queued sends to reach the
// socket before tearing it down anyway (a wedged peer must not make Close
// hang forever).
const flushTimeout = 5 * time.Second

func (g *gobConn) setErr(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

func (g *gobConn) loadErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

func (g *gobConn) writeLoop() {
	defer close(g.drained)
	for {
		select {
		case e := <-g.sendQ:
			if err := g.enc.Encode(e); err != nil {
				g.setErr(fmt.Errorf("transport: send: %w", err))
				return
			}
		case <-g.done:
			// Close was requested: flush whatever Send already accepted
			// (those calls returned nil, so silently dropping them would
			// break the sender's view of the protocol), then exit.
			for {
				select {
				case e := <-g.sendQ:
					if err := g.enc.Encode(e); err != nil {
						g.setErr(fmt.Errorf("transport: send: %w", err))
						return
					}
				default:
					return
				}
			}
		}
	}
}

type countWriter struct {
	w io.Writer
	n atomic.Int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

func (g *gobConn) Send(v any) error {
	// A writeLoop failure means messages Send already accepted never reached
	// the wire; surface it on every subsequent call instead of queueing into
	// the void.
	if err := g.loadErr(); err != nil {
		return err
	}
	// Check for closure first so a Send after Close deterministically fails
	// even when the queue has space (the writer is gone; enqueueing would
	// silently drop the message).
	select {
	case <-g.done:
		return ErrClosed
	default:
	}
	select {
	case <-g.done:
		return ErrClosed
	case g.sendQ <- envelope{V: v}:
	}
	g.mu.Lock()
	g.msgs++
	g.mu.Unlock()
	return nil
}

func (g *gobConn) Recv() (any, error) {
	g.recvMu.Lock()
	defer g.recvMu.Unlock()
	var e envelope
	if err := g.dec.Decode(&e); err != nil {
		// A pending writeLoop error is the root cause (the socket broke on
		// the way out); report it rather than the secondary decode failure.
		if werr := g.loadErr(); werr != nil {
			return nil, werr
		}
		select {
		case <-g.done:
			return nil, ErrClosed
		default:
		}
		return nil, fmt.Errorf("transport: recv: %w", err)
	}
	return e.V, nil
}

func (g *gobConn) Stats() (int64, int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.msgs, g.cw.n.Load()
}

// Close flushes the send queue (bounded by flushTimeout) and closes the
// socket. Sends sequenced before Close have already returned nil, so they
// are written out rather than silently dropped; sends racing with Close may
// be dropped.
func (g *gobConn) Close() error {
	g.once.Do(func() { close(g.done) })
	select {
	case <-g.drained:
	case <-time.After(flushTimeout):
	}
	return g.c.Close()
}

// Listen accepts exactly one connection on addr and returns it as a Conn.
func Listen(addr string) (Conn, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	c, err := l.Accept()
	if err != nil {
		return nil, err
	}
	return NewGobConn(c), nil
}

// Dial connects to a listening peer at addr.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewGobConn(c), nil
}
