package transporttest_test

import (
	"fmt"
	"math/rand"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
	"blindfl/internal/transport/transporttest"
)

// TestReframeShipsTheSameValues: a packed transfer sent through a Reframe
// link arrives in the link's chunks and lanes, each value the one sent.
func TestReframeShipsTheSameValues(t *testing.T) {
	skA, skB := protocol.TestKeys()
	d := tensor.RandDense(rand.New(rand.NewSource(1)), 5, 3, 1)
	for _, f := range []transporttest.Framing{{}, {Span: 2}, {Packed: true}, {Packed: true, Span: 3}} {
		t.Run(fmt.Sprintf("packed=%v/span=%d", f.Packed, f.Span), func(t *testing.T) {
			ca, cb := transport.Pair(64)
			a, b, err := protocol.PipeOn(transporttest.NewReframe(ca, f, skA, skB), cb, skA, skB, 1)
			if err != nil {
				t.Fatal(err)
			}
			var got *hetensor.Matrix
			if err := protocol.RunParties(a, b,
				func() { a.EncryptAndSend(d, 1, hetensor.Layout{Packed: true}) },
				func() { got = b.RecvMatrix() },
			); err != nil {
				t.Fatal(err)
			}
			if want := int64(f.Chunks(d.Rows)); b.Stream.ChunksRecv != want {
				t.Errorf("received %d chunks, want %d", b.Stream.ChunksRecv, want)
			}
			if packed := got.K > 1; packed != f.Packed {
				t.Errorf("arrived in %d lanes a ciphertext", got.K)
			}
			if sent := hetensor.Decrypt(skA, hetensor.EncryptAs(&skA.PublicKey, d, 1, hetensor.Layout{Packed: true})); !hetensor.Decrypt(skA, got).Equal(sent, 0) {
				t.Error("the values changed on the way")
			}
		})
	}
}
