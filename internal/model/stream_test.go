package model

import (
	"math"
	"testing"

	"blindfl/internal/data"
	"blindfl/internal/protocol"
	"blindfl/internal/transport"
	"blindfl/internal/transport/transporttest"
)

// framedFedPipe is fedPipe with both parties' sends reframed to f: as a
// peer that packs or chunks otherwise would have shipped them.
func framedFedPipe(t *testing.T, seed int64, f transporttest.Framing) (*protocol.Peer, *protocol.Peer) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	ca, cb := transport.Pair(4096)
	pa, pb, err := protocol.PipeOn(transporttest.NewReframe(ca, f, skA, skB), transporttest.NewReframe(cb, f, skA, skB), skA, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

// TestFederatedLRStreamedMatchesMonolithic trains the same tiny federated LR
// twice from identical seeds — every transfer reaching its receiver in 3-row
// chunks, and whole. Chunking only changes message framing, so the
// trajectories must agree exactly to fixed-point tolerance: the end-to-end
// form of the streamed correctness contract.
func TestFederatedLRStreamedMatchesMonolithic(t *testing.T) {
	ds := data.Generate(tinySpec("t-fedlr-streamed", 12, 12, 2, false), 3)
	h := tinyHyper()
	h.Epochs = 2

	run := func(span int) *History {
		pa, pb := framedFedPipe(t, 530, transporttest.Framing{Packed: true, Span: span})
		hist, err := trainOn(LR, ds, h, Pair(pa, pb))
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	streamed := run(3)
	plain := run(0)

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
// lookup path end to end on the deep model family: the transfers in 2-row
// chunks train as they do whole.
func TestFederatedPackedStreamedWDL(t *testing.T) {
	if testing.Short() {
		t.Skip("federated WDL training is slow")
	}
	ds := data.Generate(tinySpec("t-fedwdl-streamed", 8, 8, 2, true), 5)
	h := tinyHyper()

	run := func(span int) *History {
		pa, pb := framedFedPipe(t, 531, transporttest.Framing{Packed: true, Span: span})
		hist, err := trainOn(WDL, ds, h, Pair(pa, pb))
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	streamed := run(2)
	plain := run(0)
	for i := range streamed.Losses {
		if math.Abs(streamed.Losses[i]-plain.Losses[i]) > 1e-6 {
			t.Fatalf("loss %d diverges: streamed %v vs monolithic %v", i, streamed.Losses[i], plain.Losses[i])
		}
	}
}

// TestTrainHonoursEngineOptions: the engine options on a Hyper reach the
// peers of a plain Pair through Trainer.Train alone — no caller copies them
// onto the Peer. The integrity probe shows in the label party's counters,
// and only there; the sends stream at the default span whatever the options
// (every A→B transfer of a dense LR step is a 32-row batch or a 6-row weight
// piece).
func TestTrainHonoursEngineOptions(t *testing.T) {
	ds := data.Generate(tinySpec("t-fed-options", 12, 12, 2, false), 3)
	h := tinyHyper()
	h.Epochs = 1
	h.SpotCheck = true
	pa, pb := fedPipe(t, 532)
	if _, err := (Trainer{Kind: LR, Hyper: h}).Train(ds, Pair(pa, pb)); err != nil {
		t.Fatal(err)
	}
	// Training: the initial ⟦V_B⟧ and, per step, a forward and a gradient
	// conversion. Evaluation runs the serve path: its weight exchange and one
	// single-row masked product per test batch.
	chunks := func(rows int) int { return (rows + protocol.DefaultChunkRows - 1) / protocol.DefaultChunkRows }
	steps, evals := (ds.TrainA.Rows()+h.Batch-1)/h.Batch, (ds.TestA.Rows()+h.Batch-1)/h.Batch
	piece := chunks(ds.TrainB.NumCols())
	if want := int64(piece + steps*(chunks(h.Batch)+chunks(ds.TrainA.NumCols())) + piece + evals); pa.Stream.ChunksSent != want {
		t.Fatalf("feature party sent %d chunks, want %d at %d rows a chunk", pa.Stream.ChunksSent, want, protocol.DefaultChunkRows)
	}
	if pb.Stream.SpotChecks == 0 || pb.Stream.SpotMismatches != 0 {
		t.Fatalf("label party spot-checks: %+v", pb.Stream)
	}
	if pa.Stream.SpotChecks != 0 {
		t.Fatalf("feature party ran %d spot-checks; the probe is the label party's", pa.Stream.SpotChecks)
	}
}
