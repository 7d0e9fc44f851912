package bench

import (
	"math/rand"
	"time"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/engine"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/secureml"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// StepperOpts selects the throughput-engine features a stepper exercises.
// The engine knobs (Packed, Stream, Textbook, Pool, …) live on the embedded
// engine.Options — the single declaration shared with core.Config and
// model.Hyper; the stepper applies pool/secret-ops setup via
// Options.SetupKeys at construction, and the installed state stays
// registered for the process (benchmarks that care unregister via
// paillier.PoolFor).
type StepperOpts struct {
	engine.Options

	// SimLatency/SimBandwidth, when either is set, run the parties over a
	// transport.SimPair link with that one-way propagation delay and
	// bytes/sec bandwidth instead of the zero-cost channel pair: the
	// configuration under which streaming's compute/communication overlap
	// is visible on any machine (wire time releases the CPU).
	SimLatency   time.Duration
	SimBandwidth float64
}

// NewBlindFLStepper builds a federated MatMul source layer for a dataset
// spec and returns a closure that runs one forward+backward mini-batch
// (both parties, in process). Setup cost is paid here, not in the step.
// Used by both TimeBlindFLBatch and the testing.B benchmark suite.
func NewBlindFLStepper(spec data.Spec, batch, out int) func() {
	return NewBlindFLStepperOpts(spec, batch, out, StepperOpts{})
}

// NewBlindFLStepperOpts is NewBlindFLStepper with the packing and
// randomness-pool features configurable.
func NewBlindFLStepperOpts(spec data.Spec, batch, out int, opts StepperOpts) func() {
	skA, skB := protocol.TestKeys()
	var pa, pb *protocol.Peer
	var err error
	if opts.SimLatency > 0 || opts.SimBandwidth > 0 {
		ca, cb := transport.SimPair(4096, opts.SimLatency, opts.SimBandwidth)
		pa, pb, err = protocol.PipeOn(ca, cb, skA, skB, 7)
	} else {
		pa, pb, err = protocol.Pipe(skA, skB, 7)
	}
	if err != nil {
		panic(err)
	}
	opts.SetupKeys(skA, skB)
	rng := rand.New(rand.NewSource(11))
	half := spec.Feats / 2
	cfg := core.Config{Out: out, LR: 0.05, Options: opts.Options}

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
	return func() {
		runStep(
			func() { la.Forward(xA); la.Backward() },
			func() { lb.Forward(xB); lb.Backward(g) },
		)
	}
}

// NewBlindFLMultiStepper builds a k-party dense MatMul group for a dataset
// spec — Party A's half of the columns split across k feature parties, one
// session each — and returns a closure that runs one forward+backward
// mini-batch across all parties in process. k=1 is the degenerate group that
// matches the two-party stepper's work, so a k=3-vs-k=1 pair isolates the
// per-session overhead of the group runtime.
func NewBlindFLMultiStepper(spec data.Spec, batch, out, k int, opts StepperOpts) func() {
	skA, skB := protocol.TestKeys()
	skAs := make([]*paillier.PrivateKey, k)
	for i := range skAs {
		skAs[i] = skA
	}
	as, g, err := protocol.GroupPipe(skAs, skB, 7)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(11))
	half := spec.Feats / 2
	inB := spec.Feats - half
	base, rem := half/k, half%k
	inAs := make([]int, k)
	for i := range inAs {
		inAs[i] = base
		if i < rem {
			inAs[i]++
		}
	}
	cfg := core.Config{Out: out, LR: 0.05, Options: opts.Options}
	acfg := cfg
	acfg.GroupParties = k

	las := make([]*core.MatMulA, k)
	var lb *core.MultiMatMulB
	runStep := func(fa func(i int), fb func()) {
		if err := protocol.RunGroup(as, g, fa, fb); err != nil {
			panic(err)
		}
	}
	runStep(
		func(i int) { las[i] = core.NewMatMulA(as[i], acfg, inAs[i], inB) },
		func() { lb = core.NewMultiMatMulB(g, cfg, inAs, inB, false) },
	)
	xAs := make([]*tensor.Dense, k)
	for i := range xAs {
		xAs[i] = tensor.RandDense(rng, batch, inAs[i], 1)
	}
	xB := tensor.RandDense(rng, batch, inB, 1)
	grad := tensor.RandDense(rng, batch, out, 0.01)
	return func() {
		runStep(
			func(i int) { las[i].Forward(core.DenseFeatures{M: xAs[i]}); las[i].Backward() },
			func() { lb.Forward(core.DenseFeatures{M: xB}); lb.Backward(grad) },
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
