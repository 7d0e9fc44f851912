package transport

import (
	"encoding/binary"
	"errors"
	"testing"
)

// scriptConn replays a fixed list of messages to its receives and records
// its sends.
type scriptConn struct {
	in   []any
	sent []any
}

func (c *scriptConn) Send(v any) error { c.sent = append(c.sent, v); return nil }

func (c *scriptConn) Recv() (any, error) {
	if len(c.in) == 0 {
		return nil, ErrClosed
	}
	v := c.in[0]
	c.in = c.in[1:]
	return v, nil
}

func (c *scriptConn) Stats() (int64, int64) { return int64(len(c.sent)), 0 }
func (c *scriptConn) Close() error          { return nil }

// ackFuzzChunks are the chunk counts of the streams a fuzzed sender retains
// under sequence numbers 0, 1, 2: a one-chunk stream (every training step's
// last), a short one, and one long enough that an honest NACK may name
// maxNack chunks.
var ackFuzzChunks = []int{1, 3, maxNack + 2}

// FuzzStreamAck feeds a sender that retains unacknowledged streams an
// arbitrary StreamAck{Seq, Bad, Sum} — sealed or with the given sum, sent
// one to three times — ahead of an ordinary message, and takes the next
// message the way a party's next step does, through Recv. The ack must be
// absorbed and the message returned, or the conn must fail with ErrCorrupt
// and keep failing; it must never panic, and no retained chunk may go out
// again more than once, or other than as it was first sent. Bad is decoded
// two bytes an index, as signed 16-bit values.
func FuzzStreamAck(f *testing.F) {
	idx := func(xs ...int16) []byte {
		b := make([]byte, 2*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(x))
		}
		return b
	}
	f.Add(uint64(0), []byte{}, uint64(0), true, uint8(0))     // clean ack of the last stream
	f.Add(uint64(0), idx(0), uint64(0), true, uint8(0))       // NACK of a one-chunk stream
	f.Add(uint64(0), idx(0), uint64(0), true, uint8(1))       // the same NACK after its resend
	f.Add(uint64(1), idx(0, 2), uint64(0), true, uint8(0))    // honest NACK
	f.Add(uint64(1), idx(2, 2), uint64(0), true, uint8(0))    // duplicates
	f.Add(uint64(1), idx(2, 1), uint64(0), true, uint8(0))    // out of order
	f.Add(uint64(1), idx(-1), uint64(0), true, uint8(0))      // negative
	f.Add(uint64(1), idx(3), uint64(0), true, uint8(0))       // past the stream
	f.Add(uint64(2), idx(0, 1025), uint64(0), true, uint8(2)) // the long stream's last chunk, thrice
	f.Add(uint64(9), idx(0), uint64(0), true, uint8(0))       // a stream never sent
	f.Add(uint64(0), idx(0), uint64(12345), false, uint8(0))  // a corrupted ack
	f.Fuzz(func(t *testing.T, seq uint64, bad []byte, sum uint64, sealed bool, repeat uint8) {
		ack := &StreamAck{Seq: seq}
		for i := 0; i+1 < len(bad); i += 2 {
			ack.Bad = append(ack.Bad, int(int16(binary.LittleEndian.Uint16(bad[i:]))))
		}
		valid := ack.sum()
		if sealed {
			ack.Sum = valid
		} else {
			ack.Sum = sum
		}

		inner := &scriptConn{}
		sc := NewStreamConn(inner)
		for s, chunks := range ackFuzzChunks {
			err := SendStream(sc, uint64(s), chunks, 1, chunks, func(i int) (any, error) { return []int{s, i}, nil })
			if err != nil {
				t.Fatal(err)
			}
		}
		inner.sent = nil
		const after = "after"
		for i := 0; i <= int(repeat%3); i++ {
			inner.in = append(inner.in, ack)
		}
		inner.in = append(inner.in, after)

		v, err := sc.Recv()
		switch {
		case err == nil && v != after:
			t.Fatalf("Recv = %v, want the message behind the ack", v)
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("Recv err = %v, want nil or ErrCorrupt", err)
		case err != nil:
			if _, err := sc.Recv(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Recv after ErrCorrupt = %v, want it sticky", err)
			}
			if err := sc.Send(after); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Send after ErrCorrupt = %v, want it sticky", err)
			}
		}
		if ack.Sum != valid && (err == nil || len(inner.sent) != 0) {
			t.Fatalf("an ack with a bad checksum gave err = %v and %d messages sent", err, len(inner.sent))
		}

		resent := make(map[[2]int]bool)
		for _, m := range inner.sent {
			switch m := m.(type) {
			case *StreamChunk:
				if m.Seq != seq || seq >= uint64(len(ackFuzzChunks)) {
					t.Fatalf("resent a chunk of stream %d on an ack of stream %d", m.Seq, seq)
				}
				want := []int{int(m.Seq), m.Index}
				v, ok := m.V.([]int)
				if !ok || len(v) != 2 || v[0] != want[0] || v[1] != want[1] || m.Sum != Checksum(want) {
					t.Fatalf("chunk %d of stream %d went out again as %v, want %v", m.Index, m.Seq, m.V, want)
				}
				key := [2]int{int(m.Seq), m.Index}
				if resent[key] {
					t.Fatalf("chunk %d of stream %d retransmitted twice", m.Index, m.Seq)
				}
				resent[key] = true
			case *StreamEnd:
				if m.Seq != seq {
					t.Fatalf("an end marker for stream %d on an ack of stream %d", m.Seq, seq)
				}
			default:
				t.Fatalf("the sender put a %T on the wire while taking an ack", m)
			}
		}
	})
}
