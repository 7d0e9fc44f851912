package model

import (
	"testing"

	"blindfl/internal/data"
	"blindfl/internal/protocol"
)

func tinyHyper() Hyper {
	return Hyper{LR: 0.1, Momentum: 0.9, Batch: 32, Epochs: 2, Hidden: []int{8}, EmbDim: 4, Seed: 1}
}

// tinySpec builds a small learnable dataset for fast federated tests.
func tinySpec(name string, feats, nnz, classes int, cat bool) data.Spec {
	s := data.Spec{Name: name, Feats: feats, AvgNNZ: nnz, Classes: classes, Train: 160, Test: 80}
	if cat {
		s.CatFields = 4
		s.CatVocab = 8
	}
	return s
}

func fedPipe(t *testing.T, seed int64) (*protocol.Peer, *protocol.Peer) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	a, b, err := protocol.Pipe(skA, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// trainOn is the tests' shorthand for a fresh run over a party set.
func trainOn(kind Kind, ds *data.Dataset, h Hyper, ps PartySet) (*History, error) {
	return Trainer{Kind: kind, Hyper: h}.Train(ds, ps)
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"lr", "mlr", "mlp", "wdl", "dlrm"} {
		if _, err := ParseKind(s); err != nil {
			t.Errorf("ParseKind(%q) = %v", s, err)
		}
	}
	if _, err := ParseKind("svm"); err == nil {
		t.Error("ParseKind accepted svm")
	}
}

func TestCollocatedLRLearns(t *testing.T) {
	ds := data.Generate(tinySpec("t-lr", 20, 20, 2, false), 1)
	h := tinyHyper()
	h.Epochs = 10
	hist := TrainCollocated(LR, ds, h)
	if hist.TestMetric < 0.7 {
		t.Fatalf("collocated LR AUC = %v; teacher signal not learnable", hist.TestMetric)
	}
	if hist.Losses[0] < hist.Losses[len(hist.Losses)-1] {
		t.Fatalf("loss increased: %v -> %v", hist.Losses[0], hist.Losses[len(hist.Losses)-1])
	}
}

func TestPartyBWorseThanCollocated(t *testing.T) {
	ds := data.Generate(tinySpec("t-gap", 24, 24, 2, false), 2)
	h := tinyHyper()
	h.Epochs = 12
	co := TrainCollocated(LR, ds, h)
	pb := TrainPartyB(LR, ds, h)
	if pb.TestMetric >= co.TestMetric {
		t.Fatalf("Party-B-only AUC %v >= collocated %v; split carries no signal", pb.TestMetric, co.TestMetric)
	}
}

func TestFederatedLRMatchesCollocated(t *testing.T) {
	ds := data.Generate(tinySpec("t-fedlr", 16, 16, 2, false), 3)
	h := tinyHyper()
	h.Epochs = 6
	pa, pb := fedPipe(t, 500)
	fed, err := trainOn(LR, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	co := TrainCollocated(LR, ds, h)
	if fed.TestMetric < co.TestMetric-0.05 {
		t.Fatalf("federated AUC %v vs collocated %v: lossless property violated", fed.TestMetric, co.TestMetric)
	}
	if fed.TestMetric < 0.65 {
		t.Fatalf("federated AUC %v: did not learn", fed.TestMetric)
	}
}

func TestFederatedSparseLR(t *testing.T) {
	ds := data.Generate(tinySpec("t-sparse", 60, 6, 2, false), 4)
	h := tinyHyper()
	h.Epochs = 6
	pa, pb := fedPipe(t, 501)
	fed, err := trainOn(LR, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	if fed.TestMetric < 0.6 {
		t.Fatalf("sparse federated AUC = %v", fed.TestMetric)
	}
}

func TestFederatedMLR(t *testing.T) {
	if testing.Short() {
		t.Skip("federated MLR training skipped in -short")
	}
	ds := data.Generate(tinySpec("t-mlr", 20, 20, 3, false), 5)
	h := tinyHyper()
	h.Epochs = 6
	pa, pb := fedPipe(t, 502)
	fed, err := trainOn(MLR, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	if fed.MetricName != "accuracy" {
		t.Fatalf("metric = %s", fed.MetricName)
	}
	if fed.TestMetric < 0.5 {
		t.Fatalf("MLR accuracy = %v (3 classes, chance ≈ 0.33)", fed.TestMetric)
	}
}

func TestFederatedMLP(t *testing.T) {
	if testing.Short() {
		t.Skip("federated MLP training skipped in -short")
	}
	ds := data.Generate(tinySpec("t-mlp", 16, 16, 2, false), 6)
	h := tinyHyper()
	h.Epochs = 5
	pa, pb := fedPipe(t, 503)
	fed, err := trainOn(MLP, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	if fed.TestMetric < 0.6 {
		t.Fatalf("MLP AUC = %v", fed.TestMetric)
	}
}

func TestFederatedWDL(t *testing.T) {
	if testing.Short() {
		t.Skip("federated WDL training skipped in -short")
	}
	ds := data.Generate(tinySpec("t-wdl", 40, 5, 2, true), 7)
	h := tinyHyper()
	h.Epochs = 3
	pa, pb := fedPipe(t, 504)
	fed, err := trainOn(WDL, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	co := TrainCollocated(WDL, ds, h)
	if fed.TestMetric < co.TestMetric-0.1 {
		t.Fatalf("WDL federated AUC %v vs collocated %v", fed.TestMetric, co.TestMetric)
	}
}

func TestFederatedDLRM(t *testing.T) {
	if testing.Short() {
		t.Skip("federated DLRM training skipped in -short")
	}
	ds := data.Generate(tinySpec("t-dlrm", 30, 4, 2, true), 8)
	h := tinyHyper()
	h.Epochs = 5
	pa, pb := fedPipe(t, 505)
	fed, err := trainOn(DLRM, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	if fed.TestMetric < 0.55 {
		t.Fatalf("DLRM AUC = %v", fed.TestMetric)
	}
	first, last := fed.Losses[0], fed.Losses[len(fed.Losses)-1]
	if last >= first {
		t.Fatalf("DLRM loss did not decrease: %v -> %v", first, last)
	}
}

func TestHistoriesHaveExpectedIterationCount(t *testing.T) {
	ds := data.Generate(tinySpec("t-iters", 10, 10, 2, false), 9)
	h := tinyHyper()
	h.Epochs = 2
	h.Batch = 50
	hist := TrainCollocated(LR, ds, h)
	wantIters := 2 * ((160 + 49) / 50)
	if len(hist.Losses) != wantIters {
		t.Fatalf("iterations = %d want %d", len(hist.Losses), wantIters)
	}
	if hist.TestLogits.Rows != 80 {
		t.Fatalf("test logits rows = %d", hist.TestLogits.Rows)
	}
}
