package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// TestLoadMatMulRejectsUnsoundHalves: a half that decodes but does not add
// up to a layer of the declared shape — garbage, a missing or misshapen
// piece, a non-finite weight, a stray momentum buffer, an out-of-range
// option — is an error at load, never a layer that panics on first use.
func TestLoadMatMulRejectsUnsoundHalves(t *testing.T) {
	pa, pb := pipe(t, 802)
	if _, err := LoadMatMulA(bytes.NewReader([]byte("not a checkpoint")), pa, 4, 3, 2); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	sound := func() matMulAState {
		return matMulAState{Cfg: Config{Out: 2, LR: 0.1},
			UA: tensor.NewDense(4, 2), VB: tensor.NewDense(3, 2), MomUA: tensor.NewDense(4, 2)}
	}
	load := func(st any, inA int) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		_, err := LoadMatMulA(&buf, pa, inA, 3, 2)
		return err
	}
	if err := load(sound(), 4); err != nil {
		t.Fatalf("sound half refused: %v", err)
	}
	for name, mutate := range map[string]func(*matMulAState){
		"nil piece":        func(st *matMulAState) { st.UA = nil },
		"misshapen piece":  func(st *matMulAState) { st.VB = tensor.NewDense(3, 1) },
		"short backing":    func(st *matMulAState) { st.UA.Data = st.UA.Data[:3] },
		"NaN weight":       func(st *matMulAState) { st.VB.Data[0] = math.NaN() },
		"stray momentum":   func(st *matMulAState) { st.MomVB = tensor.NewDense(4, 2) },
		"width mismatch":   func(st *matMulAState) { st.Cfg.Out = 3 },
		"negative chunk":   func(st *matMulAState) { st.Cfg.ChunkRows = -1 },
		"NaN learningrate": func(st *matMulAState) { st.Cfg.LR = math.NaN() },
	} {
		st := sound()
		mutate(&st)
		if err := load(st, 4); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := load(sound(), 5); err == nil {
		t.Error("half accepted against a different declared width")
	}
	// The B half goes through the same check.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(matMulBState{Cfg: Config{Out: 2}, UB: tensor.NewDense(3, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMatMulB(&buf, pb, 4, 3, 2); err == nil {
		t.Error("B half without its V_A piece accepted")
	}
}

// TestCheckpointHalfIsKeyIndependent: a saved half is plaintext pieces,
// momentum and config only. The same model under 512-bit and 1024-bit keys
// (the weight draws come from the session seed, not the key) saves to the
// same number of bytes; a half that carried the encrypted copy of the peer's
// piece would grow with the key.
func TestCheckpointHalfIsKeyIndependent(t *testing.T) {
	save := func(skA, skB *paillier.PrivateKey) (a, b int) {
		pa, pb, err := protocol.Pipe(skA, skB, 803)
		if err != nil {
			t.Fatal(err)
		}
		la, lb := newMatMulPair(t, pa, pb, Config{Out: 2, LR: 0.1, Momentum: 0.9}, 4, 3)
		var bufA, bufB bytes.Buffer
		if err := la.Save(&bufA); err != nil {
			t.Fatal(err)
		}
		if err := lb.Save(&bufB); err != nil {
			t.Fatal(err)
		}
		return bufA.Len(), bufB.Len()
	}
	a512, b512 := save(protocol.TestKeys())
	a1024, b1024 := save(testKeys1024(t))
	if a512 != a1024 || b512 != b1024 {
		t.Fatalf("saved halves are A %d / B %d bytes at 512 bits but %d / %d at 1024", a512, b512, a1024, b1024)
	}
}
