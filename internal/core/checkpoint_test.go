package core

import (
	"bytes"
	"math/rand"
	"testing"

	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

func TestEmbedCheckpointRoundTrip(t *testing.T) {
	pa, pb := pipe(t, 801)
	cfg := embedTestCfg()
	cfg.Momentum = 0.9
	la, lb := newEmbedPair(t, pa, pb, cfg)

	rng := rand.New(rand.NewSource(3))
	xA := randIdx(rng, 3, cfg.FieldsA, cfg.VocabA)
	xB := randIdx(rng, 3, cfg.FieldsB, cfg.VocabB)
	g := tensor.RandDense(rng, 3, cfg.Out, 1)
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(xA); la.Backward() },
		func() { lb.Forward(xB); lb.Backward(g) },
	); err != nil {
		t.Fatal(err)
	}

	var bufA, bufB bytes.Buffer
	if err := la.Save(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := lb.Save(&bufB); err != nil {
		t.Fatal(err)
	}
	la2, err := LoadEmbedMatMulA(&bufA, pa)
	if err != nil {
		t.Fatal(err)
	}
	lb2, err := LoadEmbedMatMulB(&bufB, pb)
	if err != nil {
		t.Fatal(err)
	}
	if !DebugTableA(la2, lb2).Equal(DebugTableA(la, lb), 0) {
		t.Fatal("restored Q_A differs")
	}
	if !DebugEmbedWeightsB(la2, lb2).Equal(DebugEmbedWeightsB(la, lb), 0) {
		t.Fatal("restored W_B differs")
	}

	// The restored pair must still run the protocol (encrypted copies and
	// momentum intact): one more step, checked for forward consistency.
	want := plaintextZ(la2, lb2, xA, xB)
	var z *tensor.Dense
	if err := protocol.RunParties(pa, pb,
		func() { la2.Forward(xA); la2.Backward() },
		func() { z = lb2.Forward(xB); lb2.Backward(g) },
	); err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want, 1e-4) {
		t.Fatal("restored embed layer forward inconsistent")
	}
}

func TestLoadMatMulARejectsGarbage(t *testing.T) {
	pa, _ := pipe(t, 802)
	if _, err := LoadMatMulA(bytes.NewReader([]byte("not a checkpoint")), pa); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}
