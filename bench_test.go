// Package blindfl_test is the top-level benchmark suite: one benchmark per
// table and figure of the paper's evaluation. Benchmarks use reduced batch
// sizes so `go test -bench=.` completes in minutes on one core; the
// blindfl-bench command runs the paper-scale versions.
//
// Mapping (internal/bench holds the experiment entry points):
//
//	Table 5  -> BenchmarkTable5_*
//	Table 6  -> BenchmarkTable6Fmnist*
//	Table 7  -> BenchmarkTable7HiddenDim*
//	Table 8  -> BenchmarkTable8Layers*
//	Fig 9    -> BenchmarkFig9ActivationAttack (full curves via blindfl-attack)
//	Fig 10   -> BenchmarkFig10DerivativeAttack
//	Fig 11   -> BenchmarkFig11ShareDivergence
//	Fig 12   -> BenchmarkFig12Lossless* (one representative combo; the rest
//	            run via `blindfl-bench -exp fig12`)
//	Fig 15   -> BenchmarkFig15Fmnist
package blindfl_test

import (
	"io"
	"testing"

	"blindfl/internal/bench"
	"blindfl/internal/data"
	"blindfl/internal/model"
	"blindfl/internal/protocol"
	"blindfl/internal/secureml"
	"blindfl/internal/splitlearn"
)

const benchBatch = 32 // paper uses 128; reduced to keep -bench=. tractable

// skipInShort guards the paper-table benchmarks in the CI bench-smoke lane
// (`-bench . -benchtime 1x -short`): the kernel and layer-step benchmarks of
// the internal packages still run there, while the multi-minute table
// reproductions stay out of the per-push lane.
func skipInShort(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-table benchmark skipped in -short")
	}
}

func benchBlindFL(b *testing.B, dataset string, out int) {
	skipInShort(b)
	step := bench.NewBlindFLStepper(data.MustSpec(dataset), benchBatch, out)
	step() // warm-up outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func benchSecureML(b *testing.B, dataset string, out int, mode secureml.Mode) {
	skipInShort(b)
	step := bench.NewSecureMLStepper(data.MustSpec(dataset), benchBatch, out, mode)
	step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// --- Table 5: per-batch training time, BlindFL vs SecureML variants ---

func BenchmarkTable5_a9a_BlindFL(b *testing.B)      { benchBlindFL(b, "a9a", 1) }
func BenchmarkTable5_a9a_SecureML(b *testing.B)     { benchSecureML(b, "a9a", 1, secureml.HEGenerated) }
func BenchmarkTable5_a9a_ClientAided(b *testing.B)  { benchSecureML(b, "a9a", 1, secureml.ClientAided) }
func BenchmarkTable5_w8a_BlindFL(b *testing.B)      { benchBlindFL(b, "w8a", 1) }
func BenchmarkTable5_w8a_ClientAided(b *testing.B)  { benchSecureML(b, "w8a", 1, secureml.ClientAided) }
func BenchmarkTable5_connect4_BlindFL(b *testing.B) { benchBlindFL(b, "connect-4", 8) }
func BenchmarkTable5_higgs_BlindFL(b *testing.B)    { benchBlindFL(b, "higgs", 1) }
func BenchmarkTable5_higgs_SecureML(b *testing.B)   { benchSecureML(b, "higgs", 1, secureml.HEGenerated) }
func BenchmarkTable5_higgs_ClientAided(b *testing.B) {
	benchSecureML(b, "higgs", 1, secureml.ClientAided)
}

// news20/avazu/industry: BlindFL's sparse path handles the full
// dimensionality; SecureML's HE mode is infeasible there (the paper reports
// >1800s/OOM) and is exercised at small dims above.
func BenchmarkTable5_news20_BlindFL(b *testing.B) { benchBlindFL(b, "news20", 4) }
func BenchmarkTable5_avazu_BlindFL(b *testing.B)  { benchBlindFL(b, "avazu-app", 1) }
func BenchmarkTable5_avazu_ClientAided(b *testing.B) {
	benchSecureML(b, "avazu-app", 1, secureml.ClientAided)
}
func BenchmarkTable5_industry_BlindFL(b *testing.B) { benchBlindFL(b, "industry", 1) }

// --- Table 6: fmnist dense MLP ---

func BenchmarkTable6Fmnist_BlindFL(b *testing.B) {
	skipInShort(b)
	spec := data.MustSpec("fmnist")
	spec.Feats = 196 // quarter resolution keeps dense HE cost benchable
	step := bench.NewBlindFLStepper(spec, benchBatch, 8)
	step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkTable6Fmnist_ClientAided(b *testing.B) {
	benchSecureML(b, "fmnist", 8, secureml.ClientAided)
}

// --- Table 7: time vs source-layer output dim (expect ∝ dim) ---

func BenchmarkTable7HiddenDim8(b *testing.B)  { benchBlindFL(b, "connect-4", 8) }
func BenchmarkTable7HiddenDim16(b *testing.B) { benchBlindFL(b, "connect-4", 16) }
func BenchmarkTable7HiddenDim32(b *testing.B) { benchBlindFL(b, "connect-4", 32) }

// --- Table 8: time vs #layers (expect ≈ flat; the top model is plaintext) ---

func benchTable8(b *testing.B, layers int) {
	skipInShort(b)
	spec := data.MustSpec("connect-4")
	spec.Train, spec.Test = 300, 100
	ds := data.Generate(spec, 22)
	h := model.DefaultHyper()
	h.Epochs = 1
	h.Batch = benchBatch
	hidden := []int{16}
	for l := 3; l < layers; l++ {
		hidden = append(hidden, 16)
	}
	h.Hidden = hidden
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skA, skB := protocol.TestKeys()
		pa, pb, err := protocol.Pipe(skA, skB, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (model.Trainer{Kind: model.MLP, Hyper: h}).Train(ds, model.Pair(pa, pb)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8Layers3(b *testing.B) { benchTable8(b, 3) }
func BenchmarkTable8Layers5(b *testing.B) { benchTable8(b, 5) }

// --- Figures: attack and lossless experiments, timed end to end ---

// BenchmarkFig9ActivationAttack times the split-learning forward-activation
// attack component of Fig. 9 (the federated curves run via blindfl-attack).
func BenchmarkFig9ActivationAttack(b *testing.B) {
	skipInShort(b)
	spec := data.MustSpec("w8a")
	spec.Train, spec.Test = 300, 150
	ds := data.Generate(spec, 41)
	for i := 0; i < b.N; i++ {
		cfg := splitlearn.Config{LR: 0.1, Momentum: 0.9, Batch: benchBatch, Epochs: 2, Seed: 3}
		res := splitlearn.TrainLinear(ds, cfg)
		if len(res.AttackMetric) == 0 {
			b.Fatal("no attack curve")
		}
	}
}

func BenchmarkFig10DerivativeAttack(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		ts := bench.Fig10(true)
		for _, t := range ts {
			t.Print(io.Discard)
		}
	}
}

func BenchmarkFig11ShareDivergence(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		for _, t := range bench.Fig11(true) {
			t.Print(io.Discard)
		}
	}
}

func BenchmarkFig12Lossless_a9a_LR(b *testing.B) {
	skipInShort(b)
	spec := data.MustSpec("a9a")
	spec.Train, spec.Test = 300, 100
	ds := data.Generate(spec, 120)
	h := model.DefaultHyper()
	h.Epochs = 1
	h.Batch = benchBatch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skA, skB := protocol.TestKeys()
		pa, pb, err := protocol.Pipe(skA, skB, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (model.Trainer{Kind: model.LR, Hyper: h}).Train(ds, model.Pair(pa, pb)); err != nil {
			b.Fatal(err)
		}
		model.TrainCollocated(model.LR, ds, h)
		model.TrainPartyB(model.LR, ds, h)
	}
}

func BenchmarkFig15Fmnist(b *testing.B) {
	skipInShort(b)
	spec := data.MustSpec("fmnist")
	spec.Feats = 196
	spec.Train, spec.Test = 128, 64
	ds := data.Generate(spec, 151)
	h := model.DefaultHyper()
	h.Epochs = 1
	h.Batch = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skA, skB := protocol.TestKeys()
		pa, pb, err := protocol.Pipe(skA, skB, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (model.Trainer{Kind: model.MLP, Hyper: h}).Train(ds, model.Pair(pa, pb)); err != nil {
			b.Fatal(err)
		}
	}
}
