package protocol

import (
	"errors"
	"strings"
	"testing"
	"time"

	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Failure injection: protocols must surface transport failures as errors
// from Run, never hang or panic through.

func TestRecvOnClosedConnErrors(t *testing.T) {
	a, b := newPipe(t, 20)
	b.Conn.Close()
	err := a.Run(func() { a.RecvDense() })
	if err == nil || !strings.Contains(err.Error(), "recv") {
		t.Fatalf("err = %v", err)
	}
}

func TestSendOnClosedConnErrors(t *testing.T) {
	a, _ := newPipe(t, 21)
	a.Conn.Close()
	err := a.Run(func() { a.Send(tensor.NewDense(1, 1)) })
	if err == nil || !strings.Contains(err.Error(), "send") {
		t.Fatalf("err = %v", err)
	}
}

func TestMidProtocolDisconnect(t *testing.T) {
	a, b := newPipe(t, 22)
	err := RunParties(a, b,
		func() {
			a.Send(tensor.NewDense(2, 2))
			a.Conn.Close() // drop mid-protocol
		},
		func() {
			b.RecvDense()
			b.RecvDense() // the second message never arrives
		})
	if err == nil {
		t.Fatal("expected an error after mid-protocol disconnect")
	}
}

// TestRunPartiesUnblocksPeerOnEarlyError is the regression test for the
// one-sided-failure hang: A fails on the first message (a type it does not
// expect), after which B blocks in Recv waiting for a reply that will never
// come. RunParties must close both conns so B unblocks with ErrClosed
// instead of hanging forever. Pre-fix, this test deadlocks (the watchdog
// and the CI -timeout both catch it).
func TestRunPartiesUnblocksPeerOnEarlyError(t *testing.T) {
	a, b := newPipe(t, 30)
	done := make(chan error, 1)
	go func() {
		done <- RunParties(a, b,
			func() {
				a.RecvDense() // B sent an []int: type error, A dies here
			},
			func() {
				b.Send([]int{1, 2, 3})
				b.RecvDense() // nothing will ever arrive
			})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the failed party")
		}
		if !strings.Contains(err.Error(), "want *tensor.Dense") {
			t.Fatalf("first error should be A's type failure, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunParties hung after a one-sided failure")
	}
}

// TestRunPartiesErrorThenSurvivorGetsErrClosed pins the survivor's view: its
// blocked Recv returns transport.ErrClosed once RunParties tears the conns
// down.
func TestRunPartiesErrorThenSurvivorGetsErrClosed(t *testing.T) {
	a, b := newPipe(t, 31)
	var survivorErr error
	err := RunParties(a, b,
		func() { a.Fail("injected failure") },
		func() {
			_, survivorErr = b.Conn.Recv()
		})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(survivorErr, transport.ErrClosed) {
		t.Fatalf("survivor Recv = %v, want ErrClosed", survivorErr)
	}
}

func TestRunDoesNotSwallowUnrelatedPanics(t *testing.T) {
	a, _ := newPipe(t, 24)
	defer func() {
		if recover() == nil {
			t.Fatal("unrelated panic should propagate")
		}
	}()
	_ = a.Run(func() { panic("programming error") })
}

func TestPipeHandshakeAgainstHalfOpenPeer(t *testing.T) {
	// A peer that closes during the handshake must produce an error, not a
	// deadlock.
	skA, skB := TestKeys()
	ca, cb := transport.Pair(1)
	a := NewPeer(PartyA, ca, skA, nil)
	_ = NewPeer(PartyB, cb, skB, nil)
	cb.Close()
	if err := a.Handshake(); err == nil {
		t.Fatal("handshake against closed peer succeeded")
	}
}
