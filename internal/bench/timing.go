package bench

import (
	"math/rand"
	"time"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/protocol"
	"blindfl/internal/secureml"
	"blindfl/internal/tensor"
)

// NewBlindFLStepper builds a federated MatMul source layer for a dataset
// spec and returns a closure that runs one forward+backward mini-batch
// (both parties, in process, on the packed and streamed engine with no pools
// and no table cache). Setup cost is paid
// here, not in the step. Used by both TimeBlindFLBatch and the testing.B
// benchmark suite.
func NewBlindFLStepper(spec data.Spec, batch, out int) func() {
	skA, skB := protocol.TestKeys()
	pa, pb, err := protocol.Pipe(skA, skB, 7)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(11))
	half := spec.Feats / 2
	cfg := core.Config{Out: out, LR: 0.05}

	runStep := func(fa, fb func()) {
		if err := protocol.RunParties(pa, pb, fa, fb); err != nil {
			panic(err)
		}
	}

	if spec.Dense() {
		var la *core.MatMulA
		var lb *core.MatMulB
		runStep(
			func() { la = core.NewMatMulA(pa, cfg, half, spec.Feats-half) },
			func() { lb = core.NewMatMulB(pb, cfg, half, spec.Feats-half) },
		)
		xA := tensor.RandDense(rng, batch, half, 1)
		xB := tensor.RandDense(rng, batch, spec.Feats-half, 1)
		g := tensor.RandDense(rng, batch, out, 0.01)
		return func() {
			runStep(
				func() { la.Forward(core.DenseFeatures{M: xA}); la.Backward() },
				func() { lb.Forward(core.DenseFeatures{M: xB}); lb.Backward(g) },
			)
		}
	}
	la := core.NewSparseMatMulA(pa, cfg, half, spec.Feats-half)
	lb := core.NewSparseMatMulB(pb, cfg, half, spec.Feats-half)
	xA := tensor.RandCSR(rng, batch, half, spec.AvgNNZ/2)
	xB := tensor.RandCSR(rng, batch, spec.Feats-half, spec.AvgNNZ-spec.AvgNNZ/2)
	g := tensor.RandDense(rng, batch, out, 0.01)
	// Each call settles, so it prices a whole step: the masked gradient a
	// sparse step leaves owed is taken inside it.
	return func() {
		runStep(
			func() { la.Forward(core.SparseFeatures{M: xA}); la.Backward(); la.Settle() },
			func() { lb.Forward(core.SparseFeatures{M: xB}); lb.Backward(g); lb.Settle() },
		)
	}
}

// TimeBlindFLBatch measures the mean seconds per federated forward+backward
// mini-batch of the MatMul source layer on a dataset spec (the quantity the
// paper's Table 5/6 report). Initialization is excluded; iters batches are
// timed after one warm-up.
func TimeBlindFLBatch(spec data.Spec, batch, out, iters int) float64 {
	step := NewBlindFLStepper(spec, batch, out)
	step() // warm-up
	start := time.Now()
	for i := 0; i < iters; i++ {
		step()
	}
	return time.Since(start).Seconds() / float64(iters)
}

// NewSecureMLStepper builds a SecureML deployment for a spec (densified, as
// outsourcing requires) and returns a one-mini-batch closure.
func NewSecureMLStepper(spec data.Spec, batch, out int, mode secureml.Mode) func() {
	rng := rand.New(rand.NewSource(13))
	x := tensor.RandDense(rng, batch, spec.Feats, 1)
	y := make([]int, batch)
	sk0, sk1 := protocol.TestKeys()
	sys := secureml.NewSystem(rng, mode, x, y, out, sk0, sk1)
	rows := make([]int, batch)
	for i := range rows {
		rows[i] = i
	}
	g := secureml.Encode(tensor.RandDense(rng, batch, out, 0.01))
	g0, g1 := secureml.Share(rng, g)
	return func() {
		z0, z1 := sys.ForwardBatch(rows)
		_, _ = z0, z1
		sys.BackwardBatch(rows, g0, g1, 0.05)
	}
}

// TimeSecureMLBatch measures seconds per secure forward+backward mini-batch
// for SecureML in the given mode. Outsourcing forces dense features of the
// spec's full dimensionality. For the HE-generated mode, dimensions above
// capDim are measured on a capDim slice and extrapolated linearly in the
// feature count (the triple's homomorphic work is linear in d); the second
// return reports whether extrapolation happened.
func TimeSecureMLBatch(spec data.Spec, batch, out, iters int, mode secureml.Mode, capDim int) (float64, bool) {
	d := spec.Feats
	extrapolated := false
	scale := 1.0
	if mode == secureml.HEGenerated && capDim > 0 && d > capDim {
		scale = float64(d) / float64(capDim)
		d = capDim
		extrapolated = true
	}
	rng := rand.New(rand.NewSource(13))
	x := tensor.RandDense(rng, batch, d, 1) // dense: outsourcing hides zeros
	y := make([]int, batch)
	sk0, sk1 := protocol.TestKeys()
	sys := secureml.NewSystem(rng, mode, x, y, out, sk0, sk1)
	rows := make([]int, batch)
	for i := range rows {
		rows[i] = i
	}
	g := secureml.Encode(tensor.RandDense(rng, batch, out, 0.01))
	g0, g1 := secureml.Share(rng, g)

	step := func() {
		z0, z1 := sys.ForwardBatch(rows)
		_ = z0
		_ = z1
		sys.BackwardBatch(rows, g0, g1, 0.05)
	}
	step() // warm-up
	start := time.Now()
	for i := 0; i < iters; i++ {
		step()
	}
	sec := time.Since(start).Seconds() / float64(iters)
	return sec * scale, extrapolated
}
