// StreamConn: the session layer the protocol peers wrap around their
// connection. It is a transparent Conn for ordinary traffic, plus the state
// the stream NACK/resend recovery needs on both sides of a transfer:
//
//   - Sender side: SendStream registers each outgoing stream's produced chunk
//     payloads; when the receiver's StreamAck arrives (consumed transparently
//     by any later receive on this conn, or waited for by Flush where no
//     receive follows), NACKed chunks are retransmitted
//     once from the retained pristine copies. Payload references are dropped
//     as soon as the clean ack arrives.
//
//   - Receiver side: while RecvStream waits for a retransmission, unrelated
//     messages that raced ahead of it are buffered here (pushback) and
//     delivered to later receives in arrival order.
//
// Acks are fire-and-forget in the good path — no extra round trip — and both
// parties of a protocol session must wrap (protocol.NewPeer does), since a
// bare receiver would surface the peer's acks as unexpected messages.
//
// A failed retransmission poisons the conn: every later Send/Recv returns the
// sticky ErrCorrupt, so a corrupted session cannot limp onward and emit
// garbage.
package transport

import "fmt"

// StreamConn wraps a Conn with the stream-recovery session state. All methods
// must be called from the single goroutine that owns the protocol session
// (the same discipline Conn itself has for ordered use); Close and Stats
// remain safe to call concurrently, as on the underlying Conn.
type StreamConn struct {
	inner Conn
	inbox []any                 // buffered messages that raced past a recovery wait
	out   map[uint64]*outStream // outgoing streams awaiting their ack
	done  uint64                // incoming streams received in full
	err   error                 // sticky integrity failure
}

// outStream retains one outgoing stream's chunk payloads until it is acked.
type outStream struct {
	chunks []any
	resent bool
}

// NewStreamConn wraps c (idempotently) with stream-recovery state.
func NewStreamConn(c Conn) *StreamConn {
	if sc, ok := c.(*StreamConn); ok {
		return sc
	}
	return &StreamConn{inner: c, out: make(map[uint64]*outStream)}
}

// Inner returns the wrapped connection (e.g. for fault-injection inspection).
func (s *StreamConn) Inner() Conn { return s.inner }

func (s *StreamConn) Send(v any) error {
	if s.err != nil {
		return s.err
	}
	return s.inner.Send(v)
}

// Recv returns the next application message: buffered pushbacks first, then
// wire traffic with stream acks consumed (and acted on) transparently.
func (s *StreamConn) Recv() (any, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.inbox) > 0 {
		v := s.inbox[0]
		s.inbox = s.inbox[1:]
		return v, nil
	}
	return s.recvWire()
}

// recvWire reads from the wire, bypassing the inbox (the recovery wait in
// RecvStream uses it so pushed-back messages are not re-consumed), handling
// stream acks in-line.
func (s *StreamConn) recvWire() (any, error) {
	for {
		v, err := s.inner.Recv()
		if err != nil {
			return nil, err
		}
		if keep, err := s.intake(v); err != nil {
			return nil, err
		} else if keep {
			return v, nil
		}
	}
}

// intake is the session layer's look at one wire message: a stream ack is
// acted on, and a message that is nobody's any more is dropped; keep reports
// whether v is for a receiver.
func (s *StreamConn) intake(v any) (keep bool, err error) {
	switch m := v.(type) {
	case *StreamAck:
		return false, s.handleAck(m)
	// A faulty link can deliver a copy of a chunk, or the end marker of a
	// resend round, after its stream was received in full.
	case *StreamChunk:
		return m.Seq >= s.done, nil
	case *StreamEnd:
		return m.Seq >= s.done, nil
	}
	return true, nil
}

// Flush blocks until every outgoing stream has had its final ack, servicing a
// NACK's retransmission on the way; whatever else arrives meanwhile is pushed
// back for later receives. For a sender whose turn ends on a send: returning
// there would leave its last stream's NACK with nobody to answer it.
func (s *StreamConn) Flush() error {
	for len(s.out) > 0 && s.err == nil {
		v, err := s.inner.Recv()
		if err != nil {
			return err
		}
		if keep, err := s.intake(v); err != nil {
			return err
		} else if keep {
			s.pushback(v)
		}
	}
	return s.err
}

// pushback buffers a message that arrived during a recovery wait for a later
// Recv. Arrival order is preserved.
func (s *StreamConn) pushback(v any) {
	s.inbox = append(s.inbox, v)
}

// trackOutgoing retains an outgoing stream's chunk payloads until its ack.
func (s *StreamConn) trackOutgoing(seq uint64, chunks []any) {
	s.out[seq] = &outStream{chunks: chunks}
}

// handleAck processes a receiver's stream ack: clean acks release the
// retained payloads; NACKs trigger exactly one retransmission of the named
// chunks; a NACK after the retransmission poisons the conn with ErrCorrupt.
// So does a NACK list no honest receiver sends (see vetNack), before any
// chunk of it is resent.
func (s *StreamConn) handleAck(ack *StreamAck) error {
	if ack.Sum != ack.sum() {
		// A corrupted ack cannot be attributed to a stream: acting on it
		// could release or retransmit the wrong one, so the conn poisons.
		s.err = fmt.Errorf("%w: stream ack checksum mismatch (seq %d)", ErrCorrupt, ack.Seq)
		return s.err
	}
	o := s.out[ack.Seq]
	if o == nil {
		return nil // already released (or a stream this side never tracked)
	}
	if len(ack.Bad) == 0 {
		delete(s.out, ack.Seq)
		return nil
	}
	if err := vetNack(ack.Bad, len(o.chunks)); err != nil {
		delete(s.out, ack.Seq)
		s.err = fmt.Errorf("%w: stream %d ack: %v", ErrCorrupt, ack.Seq, err)
		return s.err
	}
	if o.resent {
		delete(s.out, ack.Seq)
		s.err = fmt.Errorf("%w: stream %d chunks %v rejected after retransmission", ErrCorrupt, ack.Seq, ack.Bad)
		return s.err
	}
	o.resent = true
	for _, idx := range ack.Bad {
		v := o.chunks[idx]
		if err := s.inner.Send(&StreamChunk{Seq: ack.Seq, Index: idx, V: v, Sum: Checksum(v)}); err != nil {
			return err
		}
	}
	return s.inner.Send(&StreamEnd{Seq: ack.Seq})
}

// vetNack checks a NACK list against what an honest receiver's gap scan
// (recvStreamRecover's missing) can produce: at most maxNack indices,
// strictly increasing, each naming one of the stream's chunks. Anything else
// would have the sender resend one chunk without bound, or part of a list
// before finding it bad.
func vetNack(bad []int, chunks int) error {
	if len(bad) > maxNack {
		return fmt.Errorf("names %d chunks, more than %d", len(bad), maxNack)
	}
	for i, idx := range bad {
		if idx < 0 || idx >= chunks {
			return fmt.Errorf("names chunk %d of %d", idx, chunks)
		}
		if i > 0 && idx <= bad[i-1] {
			return fmt.Errorf("names chunk %d after chunk %d", idx, bad[i-1])
		}
	}
	return nil
}

func (s *StreamConn) Stats() (int64, int64) { return s.inner.Stats() }

func (s *StreamConn) Close() error { return s.inner.Close() }
