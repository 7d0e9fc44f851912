package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

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
