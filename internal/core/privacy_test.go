package core

import (
	"math/rand"
	"testing"

	"blindfl/internal/attack"
	"blindfl/internal/data"
	"blindfl/internal/nn"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// These integration tests verify the BlindFL side of the paper's Sec. 7.2
// experiments: the attacks that succeed against split learning (see
// internal/splitlearn's tests) must fail against the federated source
// layers.

// TestFigure9BlindFLActivationAttackIsChance trains a federated LR and
// checks that Party A predicting labels with X_A·U_A — everything it can
// compute locally — performs at chance level, while the full model learns.
func TestFigure9BlindFLActivationAttackIsChance(t *testing.T) {
	if testing.Short() {
		t.Skip("attack training skipped in -short")
	}
	spec := data.Spec{Name: "fig9", Feats: 40, AvgNNZ: 6, Classes: 2,
		Train: 256, Test: 256, Margin: 6}
	ds := data.Generate(spec, 91)

	pa, pb := pipe(t, 900)
	cfg := Config{Out: 1, LR: 0.2, Momentum: 0.9}
	inA, inB := ds.TrainA.NumCols(), ds.TrainB.NumCols()
	la := NewSparseMatMulA(pa, cfg, inA, inB)
	lb := NewSparseMatMulB(pb, cfg, inA, inB)
	bias := nn.NewBias(1)
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, bias.Params())

	var fullAUC float64
	for e := 0; e < 6; e++ {
		for _, idx := range data.BatchIndices(spec.Train, 64) {
			y := gatherY(ds.TrainY, idx)
			if err := protocol.RunParties(pa, pb,
				func() { la.Forward(SparseFeatures{ds.TrainA.Batch(idx).Sparse}); la.Backward() },
				func() {
					z := lb.Forward(SparseFeatures{ds.TrainB.Batch(idx).Sparse})
					_, grad := nn.BCEWithLogits(bias.Forward(z), y)
					opt.ZeroGrad()
					gz := bias.Backward(grad)
					opt.Step()
					lb.Backward(gz)
				}); err != nil {
				t.Fatal(err)
			}
		}
	}
	settleSparse(t, pa, pb, la, lb)
	// Full model metric (reconstructed for evaluation only).
	wA, wB := sparseW(t, la, lb)
	full := ds.TestA.Sparse.MatMul(wA).Add(ds.TestB.Sparse.MatMul(wB))
	fullAUC = nn.AUC(nn.Scores(full), ds.TestY)
	if fullAUC < 0.8 {
		t.Fatalf("full model AUC %v: training failed, attack comparison meaningless", fullAUC)
	}

	// Party A's attack with its piece: must be ≈ 0.5.
	local := ds.TestA.Sparse.MatMul(la.DebugUA())
	attackAUC := attack.ActivationAUC(local, ds.TestY)
	if attackAUC > 0.62 {
		t.Fatalf("Party A's X_A·U_A attack reaches AUC %v (full model %v); labels leak", attackAUC, fullAUC)
	}
}

// TestFigure11SharesHideWeights checks the Fig. 11 property on a trained
// MatMul layer: the share is uncorrelated with the weights and far larger.
func TestFigure11SharesHideWeights(t *testing.T) {
	if testing.Short() {
		t.Skip("share-divergence training skipped in -short")
	}
	pa, pb := pipe(t, 901)
	cfg := Config{Out: 1, LR: 0.1, Momentum: 0.9}
	la, lb := newMatMulPair(t, pa, pb, cfg, 30, 30)

	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 4; step++ {
		xA := tensor.RandDense(rng, 16, 30, 1)
		xB := tensor.RandDense(rng, 16, 30, 1)
		g := tensor.RandDense(rng, 16, 1, 0.1)
		if err := protocol.RunParties(pa, pb,
			func() { la.Forward(DenseFeatures{xA}); la.Backward() },
			func() { lb.Forward(DenseFeatures{xB}); lb.Backward(g) },
		); err != nil {
			t.Fatal(err)
		}
	}
	wA := DebugWeightsA(la, lb)
	st := attack.CompareShares(wA, la.PieceUA())
	if st.ShareMaxAbs < 100*st.TrueMaxAbs {
		t.Fatalf("share spread %v vs truth %v: masking too weak", st.ShareMaxAbs, st.TrueMaxAbs)
	}
	if st.Correlation > 0.5 || st.Correlation < -0.5 {
		t.Fatalf("share correlates with weights: %v", st.Correlation)
	}
}

// TestPartyAForwardShareCarriesNoLabelSignal: the Z'_A share Party B
// receives is dominated by masks, so even the label-holding party cannot
// learn Party A's per-instance activations from it; symmetrically, Party
// A's ε share reveals nothing. Here we check mask dominance directly.
func TestPartyAForwardShareCarriesNoLabelSignal(t *testing.T) {
	pa, pb := pipe(t, 902)
	cfg := Config{Out: 1, LR: 0.1}
	la, lb := newMatMulPair(t, pa, pb, cfg, 10, 10)

	rng := rand.New(rand.NewSource(10))
	xA := tensor.RandDense(rng, 8, 10, 1)
	xB := tensor.RandDense(rng, 8, 10, 1)
	trueZA := xA.MatMul(DebugWeightsA(la, lb))

	var zA *tensor.Dense
	if err := protocol.RunParties(pa, pb,
		func() { zA = la.ForwardSS(DenseFeatures{xA}) },
		func() { lb.ForwardSS(DenseFeatures{xB}) },
	); err != nil {
		t.Fatal(err)
	}
	// zA = X_A·U_A + ε_A + (X_B·V_B − ε_B): mask-dominated, far from X_A·W_A.
	if zA.Sub(trueZA).MaxAbs() < 1000 {
		t.Fatal("Party A's share approximates its true activation; masks ineffective")
	}
}

func gatherY(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = y[j]
	}
	return out
}
