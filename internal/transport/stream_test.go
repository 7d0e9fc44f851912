package transport

import (
	"errors"
	"strings"
	"testing"

	"blindfl/internal/tensor"
)

func TestSendRecvStreamRoundTripOverPair(t *testing.T) {
	a, b := streamPair(16, nil)
	src := tensor.FromSlice(5, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	done := make(chan error, 1)
	go func() {
		done <- SendStream(a, 0, src.Rows, src.Cols, 3, func(i int) (any, error) {
			lo := i * 2
			hi := lo + 2
			if hi > src.Rows {
				hi = src.Rows
			}
			return src.RowSlice(lo, hi), nil
		})
	}()
	got := tensor.NewDense(5, 2)
	h, err := RecvStream(b, 0, func(h *StreamHeader, i int, v any) error {
		chunk := v.(*tensor.Dense)
		copy(got.Data[i*2*2:], chunk.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if h.Rows != 5 || h.Cols != 2 || h.Chunks != 3 {
		t.Fatalf("header = %+v", h)
	}
	if !got.Equal(src, 0) {
		t.Fatalf("round trip: got %v want %v", got.Data, src.Data)
	}
}

func TestRecvStreamRejectsWrongSequence(t *testing.T) {
	a, b := Pair(4)
	if err := a.Send((&StreamHeader{Seq: 7, Rows: 1, Cols: 1, Chunks: 1}).seal()); err != nil {
		t.Fatal(err)
	}
	_, err := RecvStream(NewStreamConn(b), 0, func(*StreamHeader, int, any) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "sequence mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestRecvStreamRejectsCorruptHeader(t *testing.T) {
	a, b := Pair(4)
	// A header whose announced shape was corrupted after sealing.
	h := (&StreamHeader{Seq: 0, Rows: 1, Cols: 1, Chunks: 1}).seal()
	h.Rows = 4096
	if err := a.Send(h); err != nil {
		t.Fatal(err)
	}
	_, err := RecvStream(NewStreamConn(b), 0, func(*StreamHeader, int, any) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestRecvStreamRejectsCrossedStreamChunk(t *testing.T) {
	a, b := Pair(8)
	if err := a.Send((&StreamHeader{Seq: 0, Rows: 2, Cols: 1, Chunks: 1}).seal()); err != nil {
		t.Fatal(err)
	}
	// A chunk from a different stream sequence sneaks in.
	v := tensor.NewDense(2, 1)
	if err := a.Send(&StreamChunk{Seq: 3, Index: 0, V: v, Sum: Checksum(v)}); err != nil {
		t.Fatal(err)
	}
	_, err := RecvStream(NewStreamConn(b), 0, func(*StreamHeader, int, any) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "sequence") {
		t.Fatalf("err = %v", err)
	}
}

// TestRecvStreamShortReadOverTCP truncates a stream mid-flight on a real TCP
// pair: the header promises more chunks than ever arrive and the sender's
// socket closes. The receiver must surface a transport error, not hang or
// return a partial matrix as success.
func TestRecvStreamShortReadOverTCP(t *testing.T) {
	s, c := tcpPair(t)
	defer s.Close()

	if err := c.Send((&StreamHeader{Seq: 0, Rows: 6, Cols: 1, Chunks: 3}).seal()); err != nil {
		t.Fatal(err)
	}
	v := tensor.NewDense(2, 1)
	if err := c.Send(&StreamChunk{Seq: 0, Index: 0, V: v, Sum: Checksum(v)}); err != nil {
		t.Fatal(err)
	}
	c.Close() // flushes the two queued messages, then tears the socket down

	seen := 0
	_, err := RecvStream(NewStreamConn(s), 0, func(h *StreamHeader, i int, v any) error {
		seen++
		return nil
	})
	if err == nil {
		t.Fatal("truncated stream reported success")
	}
	if seen != 1 {
		t.Fatalf("consumed %d chunks of a truncated stream, want 1", seen)
	}
	if !strings.Contains(err.Error(), "chunk 1/3") {
		t.Fatalf("err = %v", err)
	}
}

// streamPair wires two StreamConn endpoints over a buffered Pair, with fc
// optionally wrapped around the sender's endpoint for fault injection.
func streamPair(buffer int, wrap func(Conn) Conn) (*StreamConn, *StreamConn) {
	a, b := Pair(buffer)
	if wrap != nil {
		a = wrap(a)
	}
	return NewStreamConn(a), NewStreamConn(b)
}

// runStream sends src in 2-row chunks from a and assembles it at b,
// returning the receive error and the assembled matrix. After the stream the
// sender pumps one receive — that is where acks are serviced and NACKed
// chunks retransmitted, exactly as during a protocol's next receive — until
// the receiver's "done" sentinel (or a sticky corruption verdict) arrives.
func runStream(t *testing.T, a, b *StreamConn, src *tensor.Dense) (*tensor.Dense, error) {
	t.Helper()
	done := make(chan error, 1)
	chunks := (src.Rows + 1) / 2
	go func() {
		err := SendStream(a, 0, src.Rows, src.Cols, chunks, func(i int) (any, error) {
			lo := i * 2
			hi := lo + 2
			if hi > src.Rows {
				hi = src.Rows
			}
			return src.RowSlice(lo, hi), nil
		})
		if err == nil {
			if _, rerr := a.Recv(); rerr != nil && !errors.Is(rerr, ErrClosed) {
				err = rerr
			}
		}
		done <- err
	}()
	got := tensor.NewDense(src.Rows, src.Cols)
	_, err := RecvStream(b, 0, func(h *StreamHeader, i int, v any) error {
		copy(got.Data[i*2*src.Cols:], v.(*tensor.Dense).Data)
		return nil
	})
	b.Send("done") // unblock the sender's ack pump
	if serr := <-done; serr != nil && err == nil {
		err = serr
	}
	return got, err
}

// TestStreamConnRecoversEveryChunkFaultClass drives bit-flips, drops, dups
// and reorders through the NACK/resend layer: every class must reconstruct
// the matrix bit-exactly.
func TestStreamConnRecoversEveryChunkFaultClass(t *testing.T) {
	src := tensor.FromSlice(8, 2, []float64{
		1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13, -14, 15, -16})
	plans := map[string]FaultPlan{
		"bitflip": {FlipProb: 0.5, MaxFaults: 2},
		"drop":    {DropProb: 0.5, MaxFaults: 2},
		"dup":     {DupProb: 0.5, MaxFaults: 2},
		"reorder": {ReorderProb: 0.5, MaxFaults: 2},
		"mixed":   {FlipProb: 0.3, DropProb: 0.2, DupProb: 0.3, ReorderProb: 0.3, MaxFaults: 3},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			var fc *FaultConn
			a, b := streamPair(64, func(c Conn) Conn {
				fc = NewFaultConn(c, 11, name, plan)
				return fc
			})
			got, err := runStream(t, a, b, src)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(src, 0) {
				t.Fatalf("recovered stream differs: %v want %v", got.Data, src.Data)
			}
			st := fc.Injected()
			if st.Flips+st.Drops+st.Dups+st.Reorders == 0 {
				t.Fatal("fault plan injected nothing; the test exercised no recovery")
			}
		})
	}
}

// TestStreamConnDropsStragglersOfFinishedStreams: a link that reorders the
// resent copy of a chunk past its end marker delivers it after the stream
// was received in full; the next receive must see the next message, not it.
// Likewise a header the peer could never mean is refused before any chunk.
func TestStreamConnDropsStragglersOfFinishedStreams(t *testing.T) {
	src := tensor.FromSlice(2, 1, []float64{1, 2})
	a, b := streamPair(64, nil)
	if _, err := runStream(t, a, b, src); err != nil {
		t.Fatal(err)
	}
	a.Send(&StreamChunk{Seq: 0, Index: 0, V: src, Sum: Checksum(src)})
	a.Send(&StreamEnd{Seq: 0})
	a.Send("next")
	if v, err := b.Recv(); err != nil || v != "next" {
		t.Fatalf("Recv after a finished stream = %v, %v; want the next message", v, err)
	}
	for _, h := range []StreamHeader{{Seq: 1, Rows: -1, Cols: 1, Chunks: 1}, {Seq: 1, Rows: 2, Cols: 1, Chunks: 3}, {Seq: 1, Rows: 1 << 40, Cols: 1 << 40, Chunks: 1}} {
		a.Send(h.seal())
		if _, err := RecvStream(b, 1, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("header %+v: err = %v, want ErrCorrupt", h, err)
		}
	}
}

// TestStreamConnPersistentCorruptionFailsTyped: when the retransmitted chunk
// is corrupted again, the stream must abort with ErrCorrupt — one retry, then
// a loud typed failure, never silent garbage.
func TestStreamConnPersistentCorruptionFailsTyped(t *testing.T) {
	src := tensor.FromSlice(6, 1, []float64{1, 2, 3, 4, 5, 6})
	a, b := streamPair(64, func(c Conn) Conn {
		return NewFaultConn(c, 3, "persistent", FaultPlan{FlipProb: 1})
	})
	_, err := runStream(t, a, b, src)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestStreamConnSenderPoisonedAfterFailedResend pins the sender's view of a
// doubly-corrupted stream: once the final NACK arrives, every later op on
// the conn fails with the sticky ErrCorrupt.
func TestStreamConnSenderPoisonedAfterFailedResend(t *testing.T) {
	src := tensor.FromSlice(4, 1, []float64{1, 2, 3, 4})
	a, b := streamPair(64, func(c Conn) Conn {
		return NewFaultConn(c, 3, "poison", FaultPlan{FlipProb: 1})
	})
	_, err := runStream(t, a, b, src)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recv err = %v, want ErrCorrupt", err)
	}
	// The final NACK is queued toward the sender; its next receive must
	// surface the sticky corruption error (and so must every op after).
	if _, err := a.Recv(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sender Recv after failed resend = %v, want ErrCorrupt", err)
	}
	if err := a.Send(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sender Send after failed resend = %v, want ErrCorrupt", err)
	}
}

// TestStreamConnRejectsHostileNack: an ack may name only what an honest
// receiver's gap scan can — at most maxNack chunk indices, strictly
// increasing and in range. Any other list poisons the sender with ErrCorrupt
// before a single chunk goes out again: a list of duplicates must not resend
// one chunk over and over, and a bad index late in a list must not leave the
// chunks before it resent.
func TestStreamConnRejectsHostileNack(t *testing.T) {
	const chunks = maxNack + 8
	long := make([]int, maxNack+1)
	for i := range long {
		long[i] = i
	}
	for name, tc := range map[string]struct {
		bad  []int
		sent int64 // messages the sender puts on the wire; -1: poisoned
	}{
		"honest":            {[]int{1, 3, chunks - 1}, 4},
		"honest, full list": {long[:maxNack], maxNack + 1},
		"duplicates":        {[]int{2, 2, 2, 2}, -1},
		"decreasing":        {[]int{5, 3}, -1},
		"out of range late": {[]int{0, 1, chunks}, -1},
		"negative":          {[]int{-1}, -1},
		"too long":          {long, -1},
	} {
		t.Run(name, func(t *testing.T) {
			a, b := Pair(2 * chunks)
			defer b.Close()
			sc := NewStreamConn(a)
			sc.trackOutgoing(7, make([]any, chunks))
			err := sc.handleAck((&StreamAck{Seq: 7, Bad: tc.bad}).seal())
			sent, _ := sc.Stats()
			if tc.sent >= 0 {
				if err != nil || sent != tc.sent {
					t.Fatalf("honest NACK: err = %v, %d messages sent, want nil and %d", err, sent, tc.sent)
				}
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if sent != 0 {
				t.Fatalf("a refused NACK still resent %d messages", sent)
			}
			if err := sc.Send(1); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Send after a refused NACK = %v, want the sticky ErrCorrupt", err)
			}
		})
	}
}

// TestStreamConnFlush: a sender that has nothing left to receive waits out
// its last stream's ack in Flush. A NACK is serviced there; a message that
// raced ahead of the ack is kept for the next Recv; a resend that fails again
// is the same typed verdict on both sides; and with nothing outstanding Flush
// returns at once.
func TestStreamConnFlush(t *testing.T) {
	src := tensor.FromSlice(4, 1, []float64{1, 2, 3, 4})
	for name, tc := range map[string]struct {
		plan    FaultPlan
		corrupt bool
	}{
		"clean":   {},
		"nack":    {plan: FaultPlan{FlipProb: 1, MaxFaults: 1}},
		"corrupt": {plan: FaultPlan{FlipProb: 1}, corrupt: true},
	} {
		t.Run(name, func(t *testing.T) {
			a, b := streamPair(64, func(c Conn) Conn { return NewFaultConn(c, 5, "flush-"+name, tc.plan) })
			if err := a.Flush(); err != nil {
				t.Fatalf("Flush with nothing outstanding: %v", err)
			}
			recv := make(chan error, 1)
			got := tensor.NewDense(src.Rows, src.Cols)
			go func() {
				b.Send("early")
				_, err := RecvStream(b, 0, func(h *StreamHeader, i int, v any) error {
					copy(got.Data[i*2:], v.(*tensor.Dense).Data)
					return nil
				})
				recv <- err
			}()
			err := SendStream(a, 0, src.Rows, src.Cols, 2, func(i int) (any, error) { return src.RowSlice(2*i, 2*i+2), nil })
			if err != nil {
				t.Fatal(err)
			}
			ferr, rerr := a.Flush(), <-recv
			if tc.corrupt {
				if !errors.Is(ferr, ErrCorrupt) || !errors.Is(rerr, ErrCorrupt) {
					t.Fatalf("Flush = %v, RecvStream = %v; want ErrCorrupt from both", ferr, rerr)
				}
				return
			}
			if ferr != nil || rerr != nil {
				t.Fatalf("Flush = %v, RecvStream = %v", ferr, rerr)
			}
			if !got.Equal(src, 0) || len(a.out) != 0 {
				t.Fatalf("after Flush the receiver holds %v and %d streams await an ack", got.Data, len(a.out))
			}
			if v, err := a.Recv(); err != nil || v != "early" {
				t.Fatalf("Recv after Flush = %v, %v; want the message that raced the ack", v, err)
			}
		})
	}
}

// TestFaultConnDeterministicSchedule: the same (seed, label) plan injects
// exactly the same faults — the Calvin-style replayability the chaos suite
// builds on.
func TestFaultConnDeterministicSchedule(t *testing.T) {
	run := func() FaultStats {
		src := tensor.FromSlice(8, 1, []float64{1, 2, 3, 4, 5, 6, 7, 8})
		var fc *FaultConn
		a, b := streamPair(64, func(c Conn) Conn {
			fc = NewFaultConn(c, 99, "replay", FaultPlan{FlipProb: 0.4, DropProb: 0.2, DupProb: 0.4, MaxFaults: 3})
			return fc
		})
		if _, err := runStream(t, a, b, src); err != nil {
			t.Fatal(err)
		}
		return fc.Injected()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d injected %+v, first run %+v", i, got, first)
		}
	}
}

// TestFaultConnKillClosesBothEnds: the kill fault must surface as the typed
// ErrClosed on both endpoints, exactly like a real mid-protocol disconnect.
func TestFaultConnKillClosesBothEnds(t *testing.T) {
	a, b := Pair(8)
	fc := NewFaultConn(a, 7, "kill", FaultPlan{KillAtMsg: 2})
	if err := fc.Send(1); err != nil {
		t.Fatal(err)
	}
	if err := fc.Send(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("kill send = %v, want ErrClosed", err)
	}
	if !fc.Injected().Killed {
		t.Fatal("kill not recorded")
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err) // message 1 was delivered before the kill
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer Recv after kill = %v, want ErrClosed", err)
	}
}

func TestChecksumDistinguishesPayloads(t *testing.T) {
	a := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := tensor.FromSlice(2, 2, []float64{1, 2, 3, 5})
	if Checksum(a) == Checksum(b) {
		t.Fatal("checksum collision on differing payloads")
	}
	if Checksum(a) != Checksum(a.RowSlice(0, 2)) {
		t.Fatal("checksum differs on identical payloads")
	}
}
