package transport

import (
	"errors"
	"testing"
	"time"

	"blindfl/internal/tensor"
)

// Deadline and liveness suite: a hung-but-open peer must become a typed
// ErrTimeout within a bounded multiple of the configured deadline, a slow
// but demonstrably alive peer (heartbeating) must never time out, and the
// deadline layer must be transparent to ordinary traffic. The control-plane
// fault tests pin the per-class contract: a corrupted control envelope is a
// typed ErrCorrupt, a dropped one either hangs into the deadline (headers)
// or is absorbed without damage (acks).

// TestDeadlineRecvTimesOutOnHungPeer pins the liveness bound: a receiver
// whose peer goes permanently silent gets a typed ErrTimeout, and gets it
// within twice the configured deadline — not an eternal block.
func TestDeadlineRecvTimesOutOnHungPeer(t *testing.T) {
	const deadline = 200 * time.Millisecond
	_, cb := Pair(4)
	dc := NewDeadlineConn(cb, 0, deadline, 0)
	start := time.Now()
	_, err := dc.Recv()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed < deadline/2 {
		t.Fatalf("timed out after %v, before the %v deadline could have expired", elapsed, deadline)
	}
	if elapsed > 2*deadline {
		t.Fatalf("hung-peer Recv took %v, want within 2x the %v deadline", elapsed, deadline)
	}
}

// TestDeadlineTimeoutIsStickyAndFailStop: after a deadline violation the
// conn is poisoned — later operations keep failing typed instead of reading
// from a session that lost its liveness guarantee.
func TestDeadlineTimeoutIsStickyAndFailStop(t *testing.T) {
	ca, cb := Pair(4)
	dc := NewDeadlineConn(cb, 0, 50*time.Millisecond, 0)
	if _, err := dc.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if _, err := dc.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv after timeout = %v, want sticky ErrTimeout", err)
	}
	if err := dc.Send(1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Send after timeout = %v, want sticky ErrTimeout", err)
	}
	// Fail-stop closed the inner conn, so the peer unblocks with ErrClosed
	// instead of waiting on a session that already gave up.
	if err := ca.Send(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer Send after fail-stop = %v, want ErrClosed", err)
	}
}

// TestDeadlineHeartbeatKeepsSlowPeerAlive: the receive deadline is a
// liveness bound, not a latency bound. A peer that computes for longer than
// the deadline but heartbeats stays alive, and the probes never surface as
// application messages.
func TestDeadlineHeartbeatKeepsSlowPeerAlive(t *testing.T) {
	ca, cb := Pair(16)
	sender := NewDeadlineConn(ca, 0, 0, 25*time.Millisecond)
	receiver := NewDeadlineConn(cb, 0, 120*time.Millisecond, 0)
	go func() {
		time.Sleep(400 * time.Millisecond) // well past the receive deadline
		sender.Send(tensor.FromSlice(1, 1, []float64{42}))
	}()
	v, err := receiver.Recv()
	if err != nil {
		t.Fatalf("Recv on a heartbeating conn failed: %v", err)
	}
	m, ok := v.(*tensor.Dense)
	if !ok || m.Data[0] != 42 {
		t.Fatalf("Recv = %v, want the application message, not a probe", v)
	}
}

// TestDeadlineSendTimesOutOnStalledPeer: a Send that cannot hand its message
// to the transport (peer not draining, buffer full) fails typed instead of
// blocking forever.
func TestDeadlineSendTimesOutOnStalledPeer(t *testing.T) {
	ca, _ := Pair(1)
	dc := NewDeadlineConn(ca, 50*time.Millisecond, 0, 0)
	if err := dc.Send(1); err != nil { // fills the buffer
		t.Fatal(err)
	}
	err := dc.Send(2) // nobody drains: must time out
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestDeadlinePassesOrdinaryTraffic: with live traffic under the deadline,
// the wrapper is transparent in both directions and Stats pass through.
func TestDeadlinePassesOrdinaryTraffic(t *testing.T) {
	ca, cb := Pair(16)
	da := NewDeadlineConn(ca, time.Second, time.Second, 0)
	db := NewDeadlineConn(cb, time.Second, time.Second, 0)
	for i := 0; i < 5; i++ {
		if err := da.Send(i); err != nil {
			t.Fatal(err)
		}
		v, err := db.Recv()
		if err != nil || v.(int) != i {
			t.Fatalf("Recv = %v, %v, want %d", v, err, i)
		}
		if err := db.Send(-i); err != nil {
			t.Fatal(err)
		}
		v, err = da.Recv()
		if err != nil || v.(int) != -i {
			t.Fatalf("Recv = %v, %v, want %d", v, err, -i)
		}
	}
	if msgs, _ := da.Stats(); msgs != 5 {
		t.Fatalf("Stats = %d msgs, want 5", msgs)
	}
}

// TestFaultCtrlFlipHeaderFailsTyped: a control-plane flip on a stream header
// keeps the now-stale checksum, so the receiver must reject the stream with
// the typed integrity error, never assemble it under a corrupted shape.
func TestFaultCtrlFlipHeaderFailsTyped(t *testing.T) {
	ca, cb := Pair(16)
	fc := NewFaultConn(ca, 701, "ctrl-flip-header", FaultPlan{CtrlFlipProb: 1, MaxFaults: 1})
	go func() {
		src := tensor.FromSlice(2, 1, []float64{1, 2})
		SendStream(NewStreamConn(fc), 0, 2, 1, 1, func(int) (any, error) { return src, nil })
	}()
	_, err := RecvStream(NewStreamConn(cb), 0, func(*StreamHeader, int, any) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if fc.Injected().CtrlFlips != 1 {
		t.Fatalf("injected = %+v, want exactly one control flip", fc.Injected())
	}
}

// TestFaultCtrlDropHeaderTimesOutUnderDeadline: a dropped stream header
// whose sender then waits on the reply hangs the receiver — the failure mode
// the deadline layer exists for. The wrapped receiver must surface a typed
// ErrTimeout within 2x the deadline.
func TestFaultCtrlDropHeaderTimesOutUnderDeadline(t *testing.T) {
	const deadline = 200 * time.Millisecond
	ca, cb := Pair(16)
	fc := NewFaultConn(ca, 702, "ctrl-drop-header", FaultPlan{CtrlDropProb: 1, MaxFaults: 1})
	dc := NewDeadlineConn(cb, 0, deadline, 0)
	if err := fc.Send((&StreamHeader{Seq: 0, Rows: 2, Cols: 1, Chunks: 1}).seal()); err != nil {
		t.Fatal(err) // dropped on the wire; the sender now waits for a reply
	}
	start := time.Now()
	_, err := RecvStream(NewStreamConn(dc), 0, func(*StreamHeader, int, any) error { return nil })
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("dropped-header hang surfaced after %v, want within 2x the %v deadline", elapsed, deadline)
	}
	if fc.Injected().CtrlDrops != 1 {
		t.Fatalf("injected = %+v, want exactly one control drop", fc.Injected())
	}
}

// TestFaultCtrlDropMidStreamFailsTyped: when a dropped header is followed by
// further traffic, the receiver sees the stream's chunks without their frame
// — a framing violation that must fail with the typed integrity error, not
// assemble into anything.
func TestFaultCtrlDropMidStreamFailsTyped(t *testing.T) {
	ca, cb := Pair(16)
	fc := NewFaultConn(ca, 705, "ctrl-drop-midstream", FaultPlan{CtrlDropProb: 1, MaxFaults: 1})
	go func() {
		src := tensor.FromSlice(2, 1, []float64{1, 2})
		SendStream(NewStreamConn(fc), 0, 2, 1, 1, func(int) (any, error) { return src, nil })
	}()
	_, err := RecvStream(NewStreamConn(cb), 0, func(*StreamHeader, int, any) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if fc.Injected().CtrlDrops != 1 {
		t.Fatalf("injected = %+v, want exactly one control drop", fc.Injected())
	}
}

// streamPayload runs one 2x1 stream from sender to receiver and returns the
// received value and both ends' errors.
func streamPayload(sender, receiver *StreamConn, seq uint64) (*tensor.Dense, error, error) {
	src := tensor.FromSlice(2, 1, []float64{float64(seq) + 1, float64(seq) + 2})
	done := make(chan error, 1)
	go func() {
		done <- SendStream(sender, seq, 2, 1, 1, func(int) (any, error) { return src, nil })
	}()
	var got *tensor.Dense
	_, rerr := RecvStream(receiver, seq, func(_ *StreamHeader, _ int, v any) error {
		got = v.(*tensor.Dense)
		return nil
	})
	return got, rerr, <-done
}

// TestFaultCtrlFlipAckPoisonsSender: a corrupted stream ack cannot be
// attributed to a stream, so acting on it could release or retransmit the
// wrong payloads — the sender must poison itself with the typed integrity
// error the first time it sees one.
func TestFaultCtrlFlipAckPoisonsSender(t *testing.T) {
	ca, cb := Pair(16)
	scA := NewStreamConn(ca)
	fcB := NewFaultConn(cb, 703, "ctrl-flip-ack", FaultPlan{CtrlFlipProb: 1, MaxFaults: 1})
	scB := NewStreamConn(fcB)

	// The stream itself lands intact; only B's fire-and-forget ack is flipped.
	if got, rerr, serr := streamPayload(scA, scB, 0); rerr != nil || serr != nil || got == nil {
		t.Fatalf("stream failed before the ack was even processed: recv %v, send %v", rerr, serr)
	}
	if fcB.Injected().CtrlFlips != 1 {
		t.Fatalf("injected = %+v, want exactly one control flip", fcB.Injected())
	}
	// A's next receive consumes the flipped ack in-line and must poison.
	if err := scB.Send(1); err != nil {
		t.Fatal(err)
	}
	if _, err := scA.Recv(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recv over a flipped ack = %v, want ErrCorrupt", err)
	}
	if err := scA.Send(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Send after ack poisoning = %v, want sticky ErrCorrupt", err)
	}
}

// TestFaultCtrlDropAckIsAbsorbed: acks are fire-and-forget; dropping one
// costs the sender its released payload retention but must not corrupt, hang
// or fail anything — later streams keep flowing bit-exactly.
func TestFaultCtrlDropAckIsAbsorbed(t *testing.T) {
	ca, cb := Pair(16)
	scA := NewStreamConn(ca)
	fcB := NewFaultConn(cb, 704, "ctrl-drop-ack", FaultPlan{CtrlDropProb: 1, MaxFaults: 1})
	scB := NewStreamConn(fcB)
	for seq := uint64(0); seq < 3; seq++ {
		got, rerr, serr := streamPayload(scA, scB, seq)
		if rerr != nil || serr != nil {
			t.Fatalf("stream %d failed after a dropped ack: recv %v, send %v", seq, rerr, serr)
		}
		want := []float64{float64(seq) + 1, float64(seq) + 2}
		if got.Data[0] != want[0] || got.Data[1] != want[1] {
			t.Fatalf("stream %d payload = %v, want %v", seq, got.Data, want)
		}
	}
	if fcB.Injected().CtrlDrops != 1 {
		t.Fatalf("injected = %+v, want exactly one control drop", fcB.Injected())
	}
}
