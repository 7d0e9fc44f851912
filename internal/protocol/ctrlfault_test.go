package protocol

import (
	"errors"
	"testing"
	"time"

	"blindfl/internal/transport"
)

// Control-plane faults at session setup: a corrupted handshake envelope must
// surface as the typed integrity error before a garbled key can enter the
// homomorphic kernels, and a dropped handshake — a hang, not an error — must
// become a typed timeout under the deadline layer.

// faultedHandshakePair assembles a two-party pipe whose Party-A endpoint
// sends through a FaultConn running plan and whose Party-B endpoint is connB
// (or the bare pair end when nil), then starts A's handshake in the
// background. Callers drive B's side and drain aErr.
func faultedHandshakePair(t *testing.T, seed int64, label string, plan transport.FaultPlan,
	wrapB func(transport.Conn) transport.Conn) (*Peer, *Peer, chan error) {
	t.Helper()
	skA, skB := TestKeys()
	ca, cb := transport.Pair(16)
	fc := transport.NewFaultConn(ca, seed, label, plan)
	var connB transport.Conn = cb
	if wrapB != nil {
		connB = wrapB(cb)
	}
	a := NewPeer(PartyA, fc, skA, seed, 0, 0)
	b := NewPeer(PartyB, connB, skB, seed, 0, 0)
	aErr := make(chan error, 1)
	go func() { aErr <- a.Handshake() }()
	return a, b, aErr
}

// TestFaultHandshakeCorruptFailsTyped: Party A's sealed public-key envelope
// is bit-flipped in flight (stale checksum retained); Party B must reject
// the session with transport.ErrCorrupt at setup time.
func TestFaultHandshakeCorruptFailsTyped(t *testing.T) {
	_, b, aErr := faultedHandshakePair(t, 711, "hs-flip",
		transport.FaultPlan{CtrlFlipProb: 1, MaxFaults: 1}, nil)
	err := b.Handshake()
	if !errors.Is(err, transport.ErrCorrupt) {
		t.Fatalf("err = %v, want transport.ErrCorrupt", err)
	}
	// The refused session is torn down; A unblocks with a transport error
	// instead of waiting forever for a reply that will never come.
	b.Conn.Close()
	if err := <-aErr; err == nil {
		t.Fatal("Party A completed a handshake its peer refused")
	}
}

// TestFaultHandshakeDropTimesOut: Party A's handshake is dropped on the
// wire, so Party B sees silence — with its endpoint deadline-wrapped, the
// hang becomes a typed ErrTimeout within 2x the configured deadline, and the
// fail-stop close unblocks the stuck peer.
func TestFaultHandshakeDropTimesOut(t *testing.T) {
	const deadline = 200 * time.Millisecond
	_, b, aErr := faultedHandshakePair(t, 712, "hs-drop",
		transport.FaultPlan{CtrlDropProb: 1, MaxFaults: 1},
		func(c transport.Conn) transport.Conn { return transport.NewDeadlineConn(c, 0, deadline, 0) })
	start := time.Now()
	err := b.Handshake()
	elapsed := time.Since(start)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want transport.ErrTimeout", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("dropped handshake surfaced after %v, want within 2x the %v deadline", elapsed, deadline)
	}
	if err := <-aErr; err == nil {
		t.Fatal("Party A completed a handshake its peer never received")
	}
}

// TestFaultHandshakeWithinBoundsSilentPeer pins the bounded-setup primitive
// the serve CLI uses: a handshake run under Within against a peer that never
// speaks fails with a typed ErrTimeout within 2x the deadline instead of
// blocking the cold start forever.
func TestFaultHandshakeWithinBoundsSilentPeer(t *testing.T) {
	const deadline = 150 * time.Millisecond
	_, skB := TestKeys()
	_, cb := transport.Pair(4)
	b := NewPeer(PartyB, cb, skB, 713, 0, 0)
	start := time.Now()
	err := Within(deadline, func() { b.Conn.Close() }, b.Handshake)
	elapsed := time.Since(start)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want transport.ErrTimeout", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("silent-peer setup surfaced after %v, want within 2x the %v deadline", elapsed, deadline)
	}
}
