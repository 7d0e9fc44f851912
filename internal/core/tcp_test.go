package core

import (
	"math/rand"
	"net"
	"testing"

	"blindfl/internal/engine"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// tcpPeers wires two peers through a real TCP connection.
func tcpPeers(t *testing.T, seed int64) (*protocol.Peer, *protocol.Peer) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			acc <- nil
			return
		}
		acc <- transport.NewGobConn(c)
	}()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	connA := transport.NewGobConn(c)
	connB := <-acc
	if connB == nil {
		t.Fatal("accept failed")
	}
	l.Close()
	t.Cleanup(func() {
		connA.Close()
		connB.Close()
	})

	skA, skB := protocol.TestKeys()
	pa := protocol.NewPeer(protocol.PartyA, connA, skA, rand.New(rand.NewSource(seed)))
	pb := protocol.NewPeer(protocol.PartyB, connB, skB, rand.New(rand.NewSource(seed+1)))
	done := make(chan error, 1)
	go func() { done <- pa.Handshake() }()
	if err := pb.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

// TestMatMulOverTCP runs the full federated MatMul protocol across a real
// TCP connection with gob serialization, whole-span and packed in 2-row
// chunks: ciphertext matrices, shares and the refresh traffic all cross the
// wire, and chunk envelopes, sequence numbers and the gobConn writer see
// genuine socket behaviour.
func TestMatMulOverTCP(t *testing.T) {
	for _, opts := range []engine.Options{{}, {Packed: true, Stream: true, ChunkRows: 2}} {
		pa, pb := tcpPeers(t, 700)
		cfg := Config{Out: 2, LR: 0.1, Options: opts}
		la, lb := newMatMulPair(t, pa, pb, cfg, 4, 4)

		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 2; step++ {
			xA := tensor.RandDense(rng, 5, 4, 1)
			xB := tensor.RandDense(rng, 5, 4, 1)
			g := tensor.RandDense(rng, 5, 2, 1)
			want := xA.MatMul(DebugWeightsA(la, lb)).Add(xB.MatMul(DebugWeightsB(la, lb)))
			var z *tensor.Dense
			if err := protocol.RunParties(pa, pb,
				func() { la.Forward(DenseFeatures{xA}); la.Backward() },
				func() { z = lb.Forward(DenseFeatures{xB}); lb.Backward(g) },
			); err != nil {
				t.Fatal(err)
			}
			if !z.Equal(want, 1e-4) {
				t.Fatalf("%+v step %d over TCP: Z mismatch (maxdiff %g)", opts, step, z.Sub(want).MaxAbs())
			}
		}
		// The initial ⟦V_B⟧ (4 rows), then per step a 5-row and a 4-row
		// conversion.
		if want := int64(chunksOf(4, opts.ChunkRows) + 2*(chunksOf(5, opts.ChunkRows)+chunksOf(4, opts.ChunkRows))); pa.Stream.ChunksSent != want {
			t.Fatalf("%+v: party A sent %d chunks, want %d", opts, pa.Stream.ChunksSent, want)
		}
		if msgs, bytes := pa.Conn.Stats(); msgs == 0 || bytes == 0 {
			t.Fatal("no traffic recorded on the TCP transport")
		}
	}
}

// TestTCPSimultaneousLargeSendsDoNotDeadlock exercises the async writer:
// both sides push ciphertext volumes far beyond kernel socket buffers
// before either receives. A synchronous transport would deadlock here.
func TestTCPSimultaneousLargeSendsDoNotDeadlock(t *testing.T) {
	pa, pb := tcpPeers(t, 701)
	big := tensor.NewDense(600, 600) // ~2.9 MB of float64 per message
	err := protocol.RunParties(pa, pb,
		func() {
			for i := 0; i < 4; i++ {
				pa.Send(big)
			}
			for i := 0; i < 4; i++ {
				pa.RecvDense()
			}
		},
		func() {
			for i := 0; i < 4; i++ {
				pb.Send(big)
			}
			for i := 0; i < 4; i++ {
				pb.RecvDense()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}
