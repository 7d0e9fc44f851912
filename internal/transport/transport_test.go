package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

func TestPairRoundTrip(t *testing.T) {
	a, b := Pair(4)
	d := tensor.FromSlice(1, 2, []float64{1, 2})
	if err := a.Send(d); err != nil {
		t.Fatal(err)
	}
	v, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*tensor.Dense)
	if !ok || !got.Equal(d, 0) {
		t.Fatalf("got %#v", v)
	}
}

func TestPairOrdering(t *testing.T) {
	a, b := Pair(16)
	for i := 0; i < 10; i++ {
		if err := a.Send(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		v, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != i {
			t.Fatalf("out of order: got %v want %d", v, i)
		}
	}
}

func TestPairClose(t *testing.T) {
	a, b := Pair(1)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1); err != ErrClosed {
		t.Fatalf("Send after close: %v", err)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("Recv after close: %v", err)
	}
}

func TestPairStats(t *testing.T) {
	a, _ := Pair(4)
	_ = a.Send(1)
	_ = a.Send(2)
	msgs, _ := a.Stats()
	if msgs != 2 {
		t.Fatalf("msgs = %d", msgs)
	}
}

func TestPairBidirectional(t *testing.T) {
	a, b := Pair(4)
	done := make(chan error, 2)
	go func() {
		if err := a.Send("ping"); err != nil {
			done <- err
			return
		}
		v, err := a.Recv()
		if err == nil && v.(string) != "pong" {
			t.Errorf("a got %v", v)
		}
		done <- err
	}()
	go func() {
		v, err := b.Recv()
		if err == nil && v.(string) != "ping" {
			t.Errorf("b got %v", v)
		}
		if err == nil {
			err = b.Send("pong")
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPairBothEndsClose is the regression test for the shared-closed-channel
// bug: the two endpoints of a Pair used to share the closed channel but each
// carried its own sync.Once, so closing both ends panicked with "close of
// closed channel".
func TestPairBothEndsClose(t *testing.T) {
	a, b := Pair(1)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotence on the same endpoint must hold too.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPairCountedStats is the regression test for the always-zero byte
// counter: the counted pair must report gob-sized byte estimates.
func TestPairCountedStats(t *testing.T) {
	a, _ := PairCounted(4)
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) + 0.5 // non-zero: gob packs zeros into ~1 byte
	}
	d := tensor.FromSlice(8, 8, vals)
	if err := a.Send(d); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(d); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := a.Stats()
	if msgs != 2 {
		t.Fatalf("msgs = %d", msgs)
	}
	// 128 float64s plus gob framing: anything at least the raw payload size
	// is a plausible gob estimate; zero means counting is broken.
	if bytes < 8*64 {
		t.Fatalf("bytes = %d, want a gob-sized estimate ≥ %d", bytes, 8*64)
	}
	// The second identical send must be cheaper than the first (the type
	// descriptor is charged once, as on a real gob stream).
	if bytes >= 2*8*64+1024 {
		t.Fatalf("bytes = %d: type descriptor seems to be charged per message", bytes)
	}
}

// TestPlainPairStatsBytesZero pins the documented default: the uncounted
// pair does not estimate bytes.
func TestPlainPairStatsBytesZero(t *testing.T) {
	a, _ := Pair(4)
	_ = a.Send(tensor.NewDense(4, 4))
	if _, bytes := a.Stats(); bytes != 0 {
		t.Fatalf("uncounted pair reports %d bytes", bytes)
	}
}

func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			accepted <- nil
			return
		}
		accepted <- NewGobConn(c)
	}()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	l.Close()
	return server, client
}

func TestGobConnTensorRoundTrip(t *testing.T) {
	s, c := tcpPair(t)
	defer s.Close()
	defer c.Close()

	d := tensor.FromSlice(2, 2, []float64{1, -2, 3.5, 0})
	if err := c.Send(d); err != nil {
		t.Fatal(err)
	}
	v, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*tensor.Dense)
	if !ok || !got.Equal(d, 0) {
		t.Fatalf("got %#v", v)
	}
}

func TestGobConnSparseAndIntMatrix(t *testing.T) {
	s, c := tcpPair(t)
	defer s.Close()
	defer c.Close()

	cs := tensor.NewCSR(2, 4, 2)
	cs.AppendRow([]int{1, 3}, []float64{5, 6})
	cs.AppendRow(nil, nil)
	if err := c.Send(cs); err != nil {
		t.Fatal(err)
	}
	im := tensor.NewIntMatrix(1, 2)
	im.Set(0, 1, 7)
	if err := c.Send(im); err != nil {
		t.Fatal(err)
	}

	v1, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	gotCSR := v1.(*tensor.CSR)
	if !gotCSR.ToDense().Equal(cs.ToDense(), 0) {
		t.Fatal("CSR mismatch over TCP")
	}
	v2, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if v2.(*tensor.IntMatrix).At(0, 1) != 7 {
		t.Fatal("IntMatrix mismatch over TCP")
	}
}

func TestGobConnStatsCountBytes(t *testing.T) {
	s, c := tcpPair(t)
	defer s.Close()
	defer c.Close()
	if err := c.Send(tensor.NewDense(8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := c.Stats()
	if msgs != 1 || bytes <= 0 {
		t.Fatalf("stats = %d msgs %d bytes", msgs, bytes)
	}
}

// TestGobConnCloseFlushesQueuedSends is the regression test for Close
// dropping queued sends: every Send that returned nil before Close must
// reach the peer. net.Pipe's synchronous writes make the pre-fix loss
// deterministic — the writer goroutine cannot have drained the queue when
// Close lands.
func TestGobConnCloseFlushesQueuedSends(t *testing.T) {
	p1, p2 := net.Pipe()
	sender := NewGobConn(p1)
	receiver := NewGobConn(p2)

	const n = 8
	got := make(chan int, 1)
	go func() {
		count := 0
		for {
			if _, err := receiver.Recv(); err != nil {
				got <- count
				return
			}
			count++
		}
	}()
	for i := 0; i < n; i++ {
		if err := sender.Send(tensor.NewDense(16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	sender.Close() // must drain the queue before tearing down the socket
	if count := <-got; count != n {
		t.Fatalf("receiver got %d of %d messages queued before Close", count, n)
	}
}

// TestGobConnBothEndsClose: closing both endpoints (and re-closing) must not
// panic or hang.
func TestGobConnBothEndsClose(t *testing.T) {
	s, c := tcpPair(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	c.Close()
	if err := s.Send(1); err == nil {
		t.Fatal("Send after close succeeded")
	}
	if _, err := s.Recv(); err != ErrClosed {
		t.Fatalf("Recv after close: %v", err)
	}
}

// TestGobConnSurfacesWriteLoopError is the regression test for silently
// swallowed writer failures: once the socket breaks under the async writer,
// subsequent Send and Recv calls must report it instead of queueing into the
// void forever.
func TestGobConnSurfacesWriteLoopError(t *testing.T) {
	p1, p2 := net.Pipe()
	g := NewGobConn(p1)
	p2.Close() // break the socket under the writer

	var err error
	deadline := time.After(5 * time.Second)
	for err == nil {
		select {
		case <-deadline:
			t.Fatal("Send never surfaced the writeLoop error")
		default:
		}
		err = g.Send(tensor.NewDense(2, 2))
		time.Sleep(time.Millisecond)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("got ErrClosed, want the underlying write error")
	}
	if !strings.Contains(err.Error(), "send") {
		t.Fatalf("err = %v", err)
	}
	// Recv must report the same root cause rather than a bare decode error.
	if _, rerr := g.Recv(); rerr == nil || !strings.Contains(rerr.Error(), "send") {
		t.Fatalf("Recv after writer failure: %v", rerr)
	}
}

// TestGobConnPackedMatrixRoundTrip ships a packed ciphertext matrix over a
// real TCP connection: the packed federated layers must survive the gob
// transport, not just the in-process channel pair.
func TestGobConnPackedMatrixRoundTrip(t *testing.T) {
	s, c := tcpPair(t)
	defer s.Close()
	defer c.Close()

	sk, err := paillier.GenerateKey(paillier.Rand, 512)
	if err != nil {
		t.Fatal(err)
	}
	d := tensor.FromSlice(2, 6, []float64{1, -2, 3.5, 0, -0.25, 7, 0.5, -1, 2, 4, -8, 0.125})
	m := hetensor.PackEncrypt(&sk.PublicKey, d, 1)
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	v, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*hetensor.Matrix)
	if !ok {
		t.Fatalf("got %T", v)
	}
	if dec := hetensor.DecryptPacked(sk, got); !dec.Equal(d, 1e-6) {
		t.Fatalf("packed round trip decrypts to %v", dec.Data)
	}
}
