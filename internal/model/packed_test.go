package model

import (
	"math"
	"testing"

	"blindfl/internal/data"
)

// TestFederatedLRPackedMatchesUnpacked trains the same tiny federated LR
// twice — ciphertext packing on and off — from identical seeds. The mask and
// init draws are identical in both modes, so the training trajectories must
// agree to fixed-point tolerance: the end-to-end form of the packed
// correctness contract.
func TestFederatedLRPackedMatchesUnpacked(t *testing.T) {
	ds := data.Generate(tinySpec("t-fedlr-packed", 12, 12, 2, false), 3)
	h := tinyHyper()
	h.Epochs = 2

	run := func(packed bool) *History {
		hh := h
		hh.Packed = packed
		pa, pb := fedPipe(t, 520)
		hist, err := trainOn(LR, ds, hh, Pair(pa, pb))
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	packed := run(true)
	plain := run(false)

	if len(packed.Losses) != len(plain.Losses) {
		t.Fatalf("iteration counts differ: %d vs %d", len(packed.Losses), len(plain.Losses))
	}
	for i := range packed.Losses {
		if math.Abs(packed.Losses[i]-plain.Losses[i]) > 1e-5 {
			t.Fatalf("loss %d diverges: packed %v vs unpacked %v", i, packed.Losses[i], plain.Losses[i])
		}
	}
	if math.Abs(packed.TestMetric-plain.TestMetric) > 1e-6 {
		t.Fatalf("test metric diverges: packed %v vs unpacked %v", packed.TestMetric, plain.TestMetric)
	}
}
