package model

import (
	"math"
	"testing"

	"blindfl/internal/data"
)

// TestFederatedLRStreamedMatchesMonolithic trains the same tiny federated LR
// twice — chunk streaming on and off — from identical seeds. Chunking only
// changes message framing, so the trajectories must agree exactly to
// fixed-point tolerance: the end-to-end form of the streamed correctness
// contract.
func TestFederatedLRStreamedMatchesMonolithic(t *testing.T) {
	ds := data.Generate(tinySpec("t-fedlr-streamed", 12, 12, 2, false), 3)
	h := tinyHyper()
	h.Epochs = 2

	run := func(stream bool) *History {
		hh := h
		hh.Stream, hh.ChunkRows = stream, 3
		pa, pb := fedPipe(t, 530)
		hist, err := trainOn(LR, ds, hh, Pair(pa, pb))
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	streamed := run(true)
	plain := run(false)

	if len(streamed.Losses) != len(plain.Losses) {
		t.Fatalf("iteration counts differ: %d vs %d", len(streamed.Losses), len(plain.Losses))
	}
	for i := range streamed.Losses {
		if math.Abs(streamed.Losses[i]-plain.Losses[i]) > 1e-6 {
			t.Fatalf("loss %d diverges: streamed %v vs monolithic %v", i, streamed.Losses[i], plain.Losses[i])
		}
	}
	if math.Abs(streamed.TestMetric-plain.TestMetric) > 1e-6 {
		t.Fatalf("test metric diverges: streamed %v vs monolithic %v", streamed.TestMetric, plain.TestMetric)
	}
}

// TestFederatedPackedStreamedWDL exercises the streamed packed Embed-MatMul
// lookup path end to end on the deep model family.
func TestFederatedPackedStreamedWDL(t *testing.T) {
	if testing.Short() {
		t.Skip("federated WDL training is slow")
	}
	ds := data.Generate(tinySpec("t-fedwdl-streamed", 8, 8, 2, true), 5)
	h := tinyHyper()

	run := func(stream bool) *History {
		hh := h
		hh.Packed = true
		hh.Stream, hh.ChunkRows = stream, 2
		pa, pb := fedPipe(t, 531)
		hist, err := trainOn(WDL, ds, hh, Pair(pa, pb))
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	streamed := run(true)
	plain := run(false)
	for i := range streamed.Losses {
		if math.Abs(streamed.Losses[i]-plain.Losses[i]) > 1e-6 {
			t.Fatalf("loss %d diverges: streamed %v vs monolithic %v", i, streamed.Losses[i], plain.Losses[i])
		}
	}
}

// TestTrainHonoursEngineOptions: the engine options on a Hyper reach the
// peers of a plain Pair through Trainer.Train alone — no caller copies them
// onto the Peer. The send span shows in the chunk counts (every A→B transfer
// of a dense LR step is a 32-row batch or a 6-row weight piece) and the
// integrity probe in the label party's counters, and only there.
func TestTrainHonoursEngineOptions(t *testing.T) {
	ds := data.Generate(tinySpec("t-fed-options", 12, 12, 2, false), 3)
	h := tinyHyper()
	h.Epochs = 1
	h.Stream, h.ChunkRows, h.SpotCheck = true, 3, true
	pa, pb := fedPipe(t, 532)
	if _, err := (Trainer{Kind: LR, Hyper: h}).Train(ds, Pair(pa, pb)); err != nil {
		t.Fatal(err)
	}
	// Training: the initial ⟦V_B⟧ and, per step, a forward and a gradient
	// conversion. Evaluation runs the serve path, one chunk per transfer:
	// its weight exchange and one masked product per test batch.
	steps, evals := (ds.TrainA.Rows()+h.Batch-1)/h.Batch, (ds.TestA.Rows()+h.Batch-1)/h.Batch
	piece, batch := (ds.TrainB.NumCols()+2)/3, (h.Batch+2)/3
	if want := int64(piece + steps*(batch+(ds.TrainA.NumCols()+2)/3) + 1 + evals); pa.Stream.ChunksSent != want {
		t.Fatalf("feature party sent %d chunks, want %d at 3 rows a chunk", pa.Stream.ChunksSent, want)
	}
	if pb.Stream.SpotChecks == 0 || pb.Stream.SpotMismatches != 0 {
		t.Fatalf("label party spot-checks: %+v", pb.Stream)
	}
	if pa.Stream.SpotChecks != 0 {
		t.Fatalf("feature party ran %d spot-checks; the probe is the label party's", pa.Stream.SpotChecks)
	}
}
