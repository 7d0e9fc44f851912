package protocol

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"blindfl/internal/paillier"
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
	a := NewPeer(PartyA, ca, skA, 0, 0, 0)
	_ = NewPeer(PartyB, cb, skB, 0, 0, 0)
	cb.Close()
	if err := a.Handshake(); err == nil {
		t.Fatal("handshake against closed peer succeeded")
	}
}

// TestHandshakeHostilePeerTearsDown: a feature party offers a 256-bit key,
// which the label party's handshake refuses. The pipe fails with the typed
// refusal and leaves nothing behind: the refused party's exchange, blocked on
// a reply that will never come, is unblocked by closing its conn and joined,
// in a pair and in a group whose other sessions completed their handshakes.
func TestHandshakeHostilePeerTearsDown(t *testing.T) {
	weak, err := paillier.GenerateKey(paillier.Rand, 256)
	if err != nil {
		t.Fatal(err)
	}
	skA, skB := TestKeys()
	settled := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the failed handshake, want %d: an exchange was left behind",
					runtime.NumGoroutine(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	before := runtime.NumGoroutine()
	ca, cb := transport.Pair(16)
	if _, _, err := PipeOn(ca, cb, weak, skB, 1); !errors.Is(err, transport.ErrCorrupt) {
		t.Fatalf("PipeOn with a 256-bit key: err = %v, want transport.ErrCorrupt", err)
	}
	settled(before)
	if err := ca.Send(tensor.NewDense(1, 1)); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("the refused party's conn still sends after the failed handshake: err = %v", err)
	}

	if _, _, err := GroupPipe([]*paillier.PrivateKey{skA, weak, skA}, skB, 1); !errors.Is(err, transport.ErrCorrupt) {
		t.Fatalf("GroupPipe with a 256-bit key in session 1: err = %v, want transport.ErrCorrupt", err)
	}
	settled(before)
}
