package protocol

import (
	"math"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
)

func newPipe(t *testing.T, seed int64) (*Peer, *Peer) {
	t.Helper()
	skA, skB := TestKeys()
	a, b, err := Pipe(skA, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestHandshakeExchangesKeys(t *testing.T) {
	a, b := newPipe(t, 1)
	if a.PeerPK.N.Cmp(b.SK.N) != 0 {
		t.Fatal("A does not hold B's public key")
	}
	if b.PeerPK.N.Cmp(a.SK.N) != 0 {
		t.Fatal("B does not hold A's public key")
	}
}

func TestHE2SSReconstruction(t *testing.T) {
	a, b := newPipe(t, 2)
	v := tensor.FromSlice(2, 2, []float64{1.5, -2.25, 3, 0})
	var shareA, shareB *tensor.Dense
	err := RunParties(a, b, func() {
		// A holds ⟦v⟧ under B's key (as after a homomorphic computation).
		c := hetensor.Encrypt(a.PeerPK, v, 1)
		shareA = a.HE2SSSend(c)
	}, func() {
		shareB = b.HE2SSRecv()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := shareA.Add(shareB); !got.Equal(v, 1e-5) {
		t.Fatalf("HE2SS shares do not reconstruct: %v", got.Data)
	}
}

func TestHE2SSShareIsMasked(t *testing.T) {
	a, b := newPipe(t, 3)
	v := tensor.FromSlice(1, 1, []float64{0.5})
	var shareB *tensor.Dense
	err := RunParties(a, b, func() {
		c := hetensor.Encrypt(a.PeerPK, v, 1)
		a.HE2SSSend(c)
	}, func() {
		shareB = b.HE2SSRecv()
	})
	if err != nil {
		t.Fatal(err)
	}
	// With MaskMag = 2^20, the chance of the share landing within 1000 of
	// the true value is ~1/1000; treat proximity as masking failure.
	if math.Abs(shareB.At(0, 0)-0.5) < 1000 {
		t.Fatalf("share %v suspiciously close to the true value", shareB.At(0, 0))
	}
}

func TestHE2SSScale2(t *testing.T) {
	a, b := newPipe(t, 4)
	// Simulate a scale-2 product as it appears in the layer protocols.
	x := tensor.FromSlice(1, 2, []float64{0.5, -1.25})
	w := tensor.FromSlice(2, 1, []float64{2, 4})
	want := x.MatMul(w)
	var shareA, shareB *tensor.Dense
	err := RunParties(a, b, func() {
		cw := hetensor.Encrypt(a.PeerPK, w, 1)
		prod := hetensor.MulPlainLeft(x, cw) // scale 2
		shareA = a.HE2SSSend(prod)
	}, func() {
		shareB = b.HE2SSRecv()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := shareA.Add(shareB); !got.Equal(want, 1e-4) {
		t.Fatalf("scale-2 HE2SS reconstruction = %v want %v", got.Data, want.Data)
	}
}

func TestSS2HEValue(t *testing.T) {
	a, b := newPipe(t, 6)
	pieceA := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	pieceB := tensor.FromSlice(2, 2, []float64{0.5, -2, 7, -4})
	want := pieceA.Add(pieceB)
	var rec *tensor.Dense
	err := RunParties(a, b, func() {
		// A obtains ⟦v⟧ under B's key, then ships it straight back for B
		// to decrypt (test-only; real protocols mask first).
		c := a.SS2HEAs(pieceA, 1, hetensor.Layout{})
		a.SendMatrix(c)
	}, func() {
		_ = b.SS2HEAs(pieceB, 1, hetensor.Layout{})
		rec = b.RecvMatrix().Decrypt(b.SK)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Equal(want, 1e-5) {
		t.Fatalf("SS2HE = %v want %v", rec.Data, want.Data)
	}
}

func TestRunPartiesPropagatesErrors(t *testing.T) {
	a, b := newPipe(t, 7)
	err := RunParties(a, b, func() {
		a.Fail("boom: %d", 42)
	}, func() {})
	if err == nil || err.Error() != "PartyA: boom: 42" {
		t.Fatalf("err = %v", err)
	}
}

func TestRecvTypeMismatch(t *testing.T) {
	a, b := newPipe(t, 8)
	err := RunParties(a, b, func() {
		a.Send(tensor.NewIntMatrix(1, 1))
	}, func() {
		b.RecvDense()
	})
	if err == nil {
		t.Fatal("expected type mismatch error")
	}
}

func TestMaskMagnitude(t *testing.T) {
	a, _ := newPipe(t, 9)
	m := a.Mask(50, 50)
	if m.MaxAbs() > a.MaskMag {
		t.Fatal("mask exceeds MaskMag")
	}
	if m.MaxAbs() < a.MaskMag/100 {
		t.Fatal("mask suspiciously small; not uniform over the range?")
	}
}
