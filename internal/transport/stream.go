// Chunked streaming: one logical matrix message split into bounded,
// sequence-numbered, checksummed chunks. Large hetensor.Matrix
// transfers ship as a StreamHeader followed by StreamChunk envelopes and a
// closing StreamEnd, so the sender can produce chunk i+1 (encrypt, mask,
// matmul) while chunk i is on the wire and the receiver consumes chunk i−1
// (decrypt, accumulate) — the compute/communication overlap behind the
// protocol layer's streamed conversions.
//
// Integrity: every header and chunk carries an FNV-1a checksum over its
// structural payload (Checksum), verified in RecvStream before the payload is
// decoded or consumed. Sequence numbers are per-direction and monotonically
// increasing, so crossed streams surface as errors instead of silently
// corrupting a matrix.
//
// Recovery: streams run between StreamConn endpoints, which run a NACK/resend
// round: the receiver tolerates corrupt, dropped, duplicated and reordered
// chunks during the first pass, acknowledges every stream with the list of
// missing/corrupt indices, and the sender retransmits exactly those chunks
// once from its retained pristine payloads. A chunk that fails again aborts
// the stream with ErrCorrupt — corruption is never silent and never retried
// unboundedly.
package transport

import (
	"encoding/gob"
	"fmt"
	"math"
	"sort"
)

func init() {
	gob.Register(&StreamHeader{})
	gob.Register(&StreamChunk{})
	gob.Register(&StreamEnd{})
	gob.Register(&StreamAck{})
}

// ErrCorrupt is the typed error for integrity failures: a checksum mismatch
// on a stream envelope, or a stream whose retransmitted chunks failed again.
// Callers match it with errors.Is.
var ErrCorrupt = fmt.Errorf("transport: corrupt payload")

// StreamHeader announces a chunked transfer: the logical matrix shape and
// how many chunks follow on this stream sequence. Sum covers the header
// fields themselves, so a corrupted announcement cannot mis-shape the
// receiver's assembly.
type StreamHeader struct {
	Seq        uint64 // per-direction stream sequence number
	Rows, Cols int    // logical shape of the assembled message
	Chunks     int    // number of StreamChunk messages that follow
	Sum        uint64 // FNV-1a over (Seq, Rows, Cols, Chunks)
}

// seal computes and installs the header checksum.
func (h *StreamHeader) seal() *StreamHeader {
	h.Sum = h.sum()
	return h
}

func (h *StreamHeader) sum() uint64 {
	f := newFNV()
	f.writeUint64(h.Seq)
	f.writeUint64(uint64(int64(h.Rows)))
	f.writeUint64(uint64(int64(h.Cols)))
	f.writeUint64(uint64(int64(h.Chunks)))
	return f.sum()
}

// StreamChunk carries one row-chunk of a streamed transfer. Sum is
// Checksum(V), computed by the sender when the chunk is handed to the
// transport and verified by RecvStream before the payload is consumed.
type StreamChunk struct {
	Seq   uint64 // must match the header's Seq
	Index int    // 0-based position within the stream
	V     any    // chunk payload (a registered matrix type)
	Sum   uint64 // Checksum(V)
}

// StreamEnd marks the end of a chunk pass (the initial transmission or a
// retransmission round), so the receiver can detect dropped chunks — a gap
// is only knowable once the pass is complete.
type StreamEnd struct {
	Seq uint64
}

// StreamAck reports a pass outcome back to the sender. Bad lists the chunk
// indices that were missing or failed their checksum; empty means the stream
// arrived intact. Acks ride the opposite direction of the stream and are
// consumed transparently by StreamConn, so the good path costs one small
// message and no round trip. Sum seals (Seq, Bad): a corrupted ack could
// otherwise silently release the wrong stream or trigger a bogus
// retransmission, so the sender verifies it before acting.
type StreamAck struct {
	Seq uint64
	Bad []int
	Sum uint64 // FNV-1a over (Seq, Bad)
}

// seal computes and installs the ack checksum.
func (a *StreamAck) seal() *StreamAck {
	a.Sum = a.sum()
	return a
}

func (a *StreamAck) sum() uint64 {
	f := newFNV()
	f.writeUint64(a.Seq)
	f.writeUint64(uint64(len(a.Bad)))
	for _, i := range a.Bad {
		f.writeUint64(uint64(int64(i)))
	}
	return f.sum()
}

// SendStream ships one logical rows×cols message as chunks produced lazily:
// produce(i) is called only after chunk i−1 has been handed to the transport,
// so chunk production overlaps the wire (and, through it, the receiver's
// consumption). seq is the sender's per-direction stream sequence number.
//
// The produced payloads are retained until the receiver's ack arrives, so a
// NACKed chunk can be retransmitted from the pristine copy without re-running
// produce.
func SendStream(sc *StreamConn, seq uint64, rows, cols, chunks int, produce func(i int) (any, error)) error {
	if err := sc.Send((&StreamHeader{Seq: seq, Rows: rows, Cols: cols, Chunks: chunks}).seal()); err != nil {
		return err
	}
	sent := make([]any, chunks)
	for i := range sent {
		v, err := produce(i)
		if err != nil {
			return err
		}
		sent[i] = v
		if err := sc.Send(&StreamChunk{Seq: seq, Index: i, V: v, Sum: Checksum(v)}); err != nil {
			return err
		}
	}
	if err := sc.Send(&StreamEnd{Seq: seq}); err != nil {
		return err
	}
	sc.trackOutgoing(seq, sent)
	return nil
}

// RecvStream receives one chunked transfer, invoking consume for every chunk
// in index order. seq is the receiver's expectation for this direction's next
// stream sequence; a mismatched stream sequence is always an error, as is a
// checksum failure on the header. The receive is tolerant of corrupt,
// dropped, duplicated and reordered chunks, which are collected into a NACK
// and re-requested from the sender once (see the package comment); consume
// still observes chunks strictly in index order.
func RecvStream(sc *StreamConn, seq uint64, consume func(h *StreamHeader, i int, v any) error) (*StreamHeader, error) {
	v, err := sc.Recv()
	if err != nil {
		return nil, err
	}
	h, ok := v.(*StreamHeader)
	if !ok {
		return nil, fmt.Errorf("%w: stream: want header, got %T", ErrCorrupt, v)
	}
	if h.Sum != h.sum() {
		return nil, fmt.Errorf("%w: stream header checksum mismatch (seq %d)", ErrCorrupt, h.Seq)
	}
	if h.Seq != seq {
		return nil, fmt.Errorf("%w: stream sequence mismatch: got %d want %d", ErrCorrupt, h.Seq, seq)
	}
	// The receive loop indexes and the consumers size by what the header
	// announces, so an announcement no honest sender makes — a negative or
	// overflowing shape, or more chunks than rows to put in them — is
	// refused before a single chunk is read.
	if h.Chunks <= 0 || h.Rows < 0 || h.Cols < 0 || h.Chunks > max(h.Rows, 1) || (h.Cols > 0 && h.Rows > math.MaxInt/h.Cols) {
		return nil, fmt.Errorf("%w: stream header announces %d chunks of a %d×%d matrix", ErrCorrupt, h.Chunks, h.Rows, h.Cols)
	}
	err = recvStreamRecover(sc, h, consume)
	if err == nil {
		sc.done = h.Seq + 1
	}
	return h, err
}

// maxNack bounds the gap list of one StreamAck.
const maxNack = 1 << 10

// recvStreamRecover is RecvStream after the header: a first pass that
// tolerates corrupt/dropped/duplicated/reordered chunks, an ack naming the
// gaps, and at most one retransmission round before the stream aborts.
func recvStreamRecover(sc *StreamConn, h *StreamHeader, consume func(h *StreamHeader, i int, v any) error) error {
	held := make(map[int]any) // verified payloads not yet consumed
	next := 0                 // next index to hand to consume

	deliver := func() error {
		for {
			v, ok := held[next]
			if !ok {
				return nil
			}
			delete(held, next)
			if err := consume(h, next, v); err != nil {
				return err
			}
			next++
		}
	}
	process := func(chunk *StreamChunk) error {
		if chunk.Index < 0 || chunk.Index >= h.Chunks {
			return fmt.Errorf("%w: stream chunk index %d outside 0..%d", ErrCorrupt, chunk.Index, h.Chunks-1)
		}
		if chunk.Index < next || held[chunk.Index] != nil {
			return nil // duplicate of a chunk already verified
		}
		if Checksum(chunk.V) != chunk.Sum {
			return nil // corrupt: leave the gap for the NACK round
		}
		held[chunk.Index] = chunk.V
		return deliver()
	}
	// At most maxNack gaps are named per ack: the list is sized by the chunk
	// count the peer announced, and a transfer that lost more than that is
	// beyond one resend round anyway — it ends in the same ErrCorrupt.
	missing := func() []int {
		var m []int
		for i := next; i < h.Chunks && len(m) < maxNack; i++ {
			if held[i] == nil {
				m = append(m, i)
			}
		}
		sort.Ints(m)
		return m
	}

	// First pass: everything between the header and the end marker.
	for {
		v, err := sc.Recv()
		if err != nil {
			return fmt.Errorf("transport: stream: chunk %d/%d: %w", next, h.Chunks, err)
		}
		if end, ok := v.(*StreamEnd); ok {
			if end.Seq != h.Seq {
				return fmt.Errorf("%w: stream: end marker for seq %d during stream %d", ErrCorrupt, end.Seq, h.Seq)
			}
			break
		}
		chunk, ok := v.(*StreamChunk)
		if !ok {
			return fmt.Errorf("%w: stream chunk %d: want chunk, got %T", ErrCorrupt, next, v)
		}
		if chunk.Seq != h.Seq {
			return fmt.Errorf("%w: stream chunk sequence %d does not match header %d", ErrCorrupt, chunk.Seq, h.Seq)
		}
		if err := process(chunk); err != nil {
			return err
		}
	}

	bad := missing()
	if err := sc.Send((&StreamAck{Seq: h.Seq, Bad: bad}).seal()); err != nil {
		return fmt.Errorf("transport: stream: ack: %w", err)
	}
	if len(bad) == 0 {
		return nil
	}

	// NACK round: the sender retransmits exactly the bad indices and closes
	// with another end marker. Unrelated traffic that raced ahead of the
	// retransmission is buffered for later receives.
	for {
		v, err := sc.recvWire()
		if err != nil {
			return fmt.Errorf("transport: stream: resend %v: %w", bad, err)
		}
		if end, ok := v.(*StreamEnd); ok && end.Seq == h.Seq {
			break
		}
		if chunk, ok := v.(*StreamChunk); ok && chunk.Seq == h.Seq {
			if err := process(chunk); err != nil {
				return err
			}
			continue
		}
		sc.pushback(v)
	}
	still := missing()
	if err := sc.Send((&StreamAck{Seq: h.Seq, Bad: still}).seal()); err != nil {
		return fmt.Errorf("transport: stream: final ack: %w", err)
	}
	if len(still) > 0 {
		return fmt.Errorf("%w: stream chunks %v still corrupt after retransmission", ErrCorrupt, still)
	}
	return nil
}
