package model

import (
	"math/rand"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/nn"
	"blindfl/internal/protocol"
	"blindfl/internal/rng"
	"blindfl/internal/tensor"
)

// numSrcB is the label party's numeric source layer as a run sees it: the
// k-session group layer over local sessions (groupSrcB), or the shard root's
// view of halves living in worker processes (shardSrcB, shard.go). The serve
// methods are defined for dense layers only (Serveable guards every call
// site).
type numSrcB interface {
	// seedEpoch re-derives the sessions' mask streams at an epoch boundary.
	seedEpoch(e int)
	forward(p data.Part) *tensor.Dense
	backward(g *tensor.Dense)
	// settle takes what the last backward left owed (a sparse layer's
	// masked gradient of V_A): at a checkpoint, at the end of a run, or
	// before another layer receives on the same peer.
	settle()
	serveStart()
	serveForward(x *tensor.Dense) *tensor.Dense
	// layers serializes the settled per-session halves, in session order, at
	// the epoch-e checkpoint boundary.
	layers(epoch int) ([][]byte, error)
}

// numeric views a part's numeric features as the MatMul layer's input.
func numeric(p data.Part) core.Numeric {
	if p.Sparse != nil {
		return core.SparseFeatures{M: p.Sparse}
	}
	return core.DenseFeatures{M: p.Dense}
}

// openGroup opens the k-session numeric source layer on g: built fresh, or
// assembled from restored halves (subs) and put through the resume exchange.
// Must run concurrently with the feature parties opening theirs.
func (pl *runPlan) openGroup(g *protocol.Group, subs []core.NumericB) *core.MultiMatMulB {
	if subs == nil {
		return core.NewMultiMatMulB(g, pl.cfg, pl.inAs, pl.inB, pl.lay.Sparse)
	}
	l := core.NewMultiMatMulBFrom(g, pl.cfg, subs)
	l.ResumeExchange()
	return l
}

// groupSrcB is the numeric source layer on local sessions. A pair is a
// one-session group, so this is the two-party facade too.
type groupSrcB struct {
	g *protocol.Group
	l *core.MultiMatMulB
}

func (s *groupSrcB) seedEpoch(e int) { s.g.SeedEpoch(e) }

func (s *groupSrcB) forward(p data.Part) *tensor.Dense { return s.l.Forward(numeric(p)) }

func (s *groupSrcB) backward(g *tensor.Dense) { s.l.Backward(g) }
func (s *groupSrcB) settle()                  { s.l.Settle() }
func (s *groupSrcB) serveStart()              { s.l.ServeStart() }

func (s *groupSrcB) serveForward(x *tensor.Dense) *tensor.Dense { return s.l.ServeForward(x) }

func (s *groupSrcB) layers(int) ([][]byte, error) { return saveGroup(s.l) }

// FedA is Party A's half of a federated model: its numeric source layer
// and, for the embedding families, its Embed-MatMul half, mirroring FedB.
type FedA struct {
	num core.NumericA
	emb *core.EmbedMatMulA
}

// settle settles every half: at a checkpoint, and where a run ends.
func (m *FedA) settle() {
	m.num.Settle()
	if m.emb != nil {
		m.emb.Settle()
	}
}

// settle settles the label party's halves, like FedA.settle.
func (m *FedB) settle() {
	m.num.settle()
	if m.emb != nil {
		m.emb.Settle()
	}
}

// FedB is Party B's half: the source layers plus the plaintext top model.
type FedB struct {
	kind    Kind
	classes int
	num     numSrcB
	emb     *core.EmbedMatMulB
	head    headB
	opt     *nn.SGD
}

// headB maps source-layer outputs to logits and routes gradients back; one
// implementation per model family.
type headB interface {
	forward(zNum, zEmb *tensor.Dense) *tensor.Dense
	backward(grad *tensor.Dense) (gNum, gEmb *tensor.Dense)
	params() []*nn.Param
}

// biasHead: logits = Z + b (LR and MLR).
type biasHead struct{ bias *nn.Bias }

func (h *biasHead) forward(zNum, _ *tensor.Dense) *tensor.Dense { return h.bias.Forward(zNum) }
func (h *biasHead) backward(g *tensor.Dense) (*tensor.Dense, *tensor.Dense) {
	return h.bias.Backward(g), nil
}
func (h *biasHead) params() []*nn.Param { return h.bias.Params() }

// mlpHead: logits = MLP(Z) with a leading ReLU (the source layer is the
// first linear layer).
type mlpHead struct{ seq *nn.Sequential }

func (h *mlpHead) forward(zNum, _ *tensor.Dense) *tensor.Dense { return h.seq.Forward(zNum) }
func (h *mlpHead) backward(g *tensor.Dense) (*tensor.Dense, *tensor.Dense) {
	return h.seq.Backward(g), nil
}
func (h *mlpHead) params() []*nn.Param { return h.seq.Params() }

// wdlHead: logits = Z_wide + MLP(Z_deep) (paper Fig. 5).
type wdlHead struct{ deep *nn.Sequential }

func (h *wdlHead) forward(zNum, zEmb *tensor.Dense) *tensor.Dense {
	return zNum.Add(h.deep.Forward(zEmb))
}
func (h *wdlHead) backward(g *tensor.Dense) (*tensor.Dense, *tensor.Dense) {
	return g, h.deep.Backward(g)
}
func (h *wdlHead) params() []*nn.Param { return h.deep.Params() }

// dlrmHead: logits = MLP(ReLU(Z_num + Z_emb)) — a simplified DLRM: the
// numeric and categorical towers interact by one sum rather than by DLRM's
// pairwise dot products.
type dlrmHead struct {
	relu *nn.ReLU
	seq  *nn.Sequential
}

func (h *dlrmHead) forward(zNum, zEmb *tensor.Dense) *tensor.Dense {
	return h.seq.Forward(h.relu.Forward(zNum.Add(zEmb)))
}
func (h *dlrmHead) backward(g *tensor.Dense) (*tensor.Dense, *tensor.Dense) {
	gz := h.relu.Backward(h.seq.Backward(g))
	return gz, gz
}
func (h *dlrmHead) params() []*nn.Param { return h.seq.Params() }

// buildMLPTop constructs ReLU→Linear chains from in through hidden to out.
func buildMLPTop(rng *rand.Rand, in int, hidden []int, out int) *nn.Sequential {
	mods := []nn.Module{&nn.ReLU{}}
	prev := in
	for _, hdim := range hidden {
		mods = append(mods, nn.NewLinear(rng, prev, hdim), &nn.ReLU{})
		prev = hdim
	}
	mods = append(mods, nn.NewLinear(rng, prev, out))
	return nn.NewSequential(mods...)
}

// sourceOut returns the numeric source layer's output width for a family.
func sourceOut(kind Kind, classes int, h Hyper) int {
	switch kind {
	case LR, WDL:
		return 1
	case MLR:
		return outDim(classes)
	case MLP:
		return firstHidden(h)
	case DLRM:
		return firstHidden(h)
	}
	panic("model: unreachable")
}

func firstHidden(h Hyper) int {
	if len(h.Hidden) == 0 {
		return 16
	}
	return h.Hidden[0]
}

func restHidden(h Hyper) []int {
	if len(h.Hidden) <= 1 {
		return nil
	}
	return h.Hidden[1:]
}

// NewFedA builds Party A's model half. Must run concurrently with NewFedB.
func NewFedA(p *protocol.Peer, kind Kind, ds *data.Dataset, h Hyper) *FedA {
	applyOptions(h.Options, p)
	return pairPlan(kind, ds, h).openA(p, 0, nil)
}

// NewFedB builds Party B's model half with the plaintext top model: the
// label party of a one-session group.
func NewFedB(p *protocol.Peer, kind Kind, ds *data.Dataset, h Hyper) *FedB {
	applyOptions(h.Options, p)
	num, emb := (&groupSide{g: protocol.NewGroup([]*protocol.Peer{p})}).open(pairPlan(kind, ds, h))
	head := buildHead(kind, ds.Spec.Classes, h)
	return &FedB{kind: kind, classes: ds.Spec.Classes, num: num, emb: emb, head: head, opt: nn.NewSGD(h.LR, h.Momentum, head.params())}
}

// pairPlan is the plan of a fresh two-party run over ds.
func pairPlan(kind Kind, ds *data.Dataset, h Hyper) *runPlan {
	pl, err := Trainer{Kind: kind, Hyper: h}.plan(ds, 1, nil, false)
	if err != nil {
		panic(err)
	}
	return pl
}

// openA builds feature party i's halves on p — or puts the ones restored
// from a checkpoint through their resume exchange: the numeric layer, then
// an embedding family's Embed-MatMul layer, the order their init draws have
// always had. Must run concurrently with the label side's open.
func (pl *runPlan) openA(p *protocol.Peer, i int, m *FedA) *FedA {
	if m != nil {
		m.num.ResumeExchange()
		if m.emb != nil {
			m.emb.ResumeExchange()
		}
		return m
	}
	m = &FedA{}
	if pl.lay.Sparse {
		m.num = core.NewSparseMatMulA(p, pl.cfg, pl.inAs[i], pl.inB)
	} else {
		m.num = core.NewMatMulA(p, pl.cfg, pl.inAs[i], pl.inB)
	}
	if pl.kind.UsesEmbedding() {
		m.emb = core.NewEmbedMatMulA(p, pl.emb)
	}
	return m
}

// buildHead constructs the plaintext head for a family, drawing its init
// from the (h.Seed, "head-init") stream. The Predictor rebuilds heads through
// the same constructor before overwriting the parameters from a checkpoint,
// so the module shapes always match the training-time head.
func buildHead(kind Kind, classes int, h Hyper) headB {
	top := rng.New(h.Seed, "head-init")
	out := outDim(classes)
	switch kind {
	case LR, MLR:
		return &biasHead{bias: nn.NewBias(out)}
	case MLP:
		return &mlpHead{seq: buildMLPTop(top, firstHidden(h), restHidden(h), out)}
	case WDL:
		return &wdlHead{deep: buildMLPTop(top, sourceOutEmbed(h), restHidden(h), out)}
	case DLRM:
		return &dlrmHead{relu: &nn.ReLU{}, seq: nn.NewSequential(nn.NewLinear(top, firstHidden(h), out))}
	}
	panic("model: unreachable")
}

// sourceOutEmbed is the Embed-MatMul output width (the deep tower input).
func sourceOutEmbed(h Hyper) int { return firstHidden(h) }

// StepA runs Party A's forward and backward for one mini-batch.
func (m *FedA) StepA(p data.Part) {
	m.ForwardA(p)
	m.num.Backward()
	if m.emb != nil {
		m.emb.Backward()
	}
}

// ForwardA runs Party A's inference-only pass.
func (m *FedA) ForwardA(p data.Part) {
	m.num.Forward(numeric(p))
	if m.emb != nil {
		m.emb.Forward(p.Cat)
	}
}

// ForwardB runs Party B's inference-only pass and returns the logits.
func (m *FedB) ForwardB(p data.Part) *tensor.Dense {
	zNum := m.num.forward(p)
	var zEmb *tensor.Dense
	if m.emb != nil {
		zEmb = m.emb.Forward(p.Cat)
	}
	return m.head.forward(zNum, zEmb)
}

// StepB runs Party B's full training step and returns the mini-batch loss.
func (m *FedB) StepB(p data.Part, y []int) float64 {
	logits := m.ForwardB(p)
	loss, grad := m.lossGrad(logits, y)
	m.opt.ZeroGrad()
	gNum, gEmb := m.head.backward(grad)
	m.opt.Step()
	m.num.backward(gNum)
	if m.emb != nil {
		// The embedding layer receives on the same peer: the numeric layer's
		// owed gradient is ahead of its traffic.
		m.num.settle()
		m.emb.Backward(gEmb)
	}
	return loss
}

// Serveable reports whether a family/dataset pair is covered by the serve
// path: the dense numeric families (LR, MLR, MLP). The embedding families
// and sparse datasets keep the training-shaped forward only; they train,
// checkpoint and resume like the rest, but NewPredictor refuses them.
func Serveable(kind Kind, ds *data.Dataset) bool {
	return !kind.UsesEmbedding() && ds.Spec.Dense()
}

func (m *FedB) lossGrad(logits *tensor.Dense, y []int) (float64, *tensor.Dense) {
	if m.classes == 2 {
		return nn.BCEWithLogits(logits, y)
	}
	return nn.SoftmaxCE(logits, y)
}

// evalB computes Party B's test-set logits. Serveable models evaluate
// through the exact-integer serve forward and the plaintext head — the
// inference path blindfl-serve runs, mask- and engine-independent, so a
// later Predictor reproduces these logits bit for bit; the rest use the
// training forward. Must run concurrently with evalA's matching branch.
func evalB(mb *FedB, ds *data.Dataset, h Hyper) *tensor.Dense {
	forward := mb.ForwardB
	if Serveable(mb.kind, ds) {
		mb.num.serveStart()
		forward = func(p data.Part) *tensor.Dense { return mb.head.forward(mb.num.serveForward(p.Dense), nil) }
	}
	var rows []*tensor.Dense
	for _, idx := range data.BatchIndices(ds.TestB.Rows(), h.Batch) {
		rows = append(rows, forward(ds.TestB.Batch(idx)))
	}
	return vstack(rows)
}

// evalA is Party A's half of the test-set evaluation, mirroring evalB's
// serve/training branch. testA is this party's test split (a column block of
// ds.TestA in the multi-party case).
func evalA(ma *FedA, kind Kind, ds *data.Dataset, testA data.Part, batch int) {
	forward := ma.ForwardA
	if Serveable(kind, ds) {
		dense := ma.num.(*core.MatMulA) // a serveable layer is dense
		dense.ServeStart()
		forward = func(p data.Part) { dense.ServeForward(p.Dense) }
	}
	for _, idx := range data.BatchIndices(testA.Rows(), batch) {
		forward(testA.Batch(idx))
	}
}

func finishHistory(hist *History, ds *data.Dataset) {
	if hist.TestLogits == nil {
		return
	}
	if ds.Spec.Classes == 2 {
		hist.TestMetric = nn.AUC(nn.Scores(hist.TestLogits), ds.TestY)
	} else {
		hist.TestMetric = nn.Accuracy(hist.TestLogits, ds.TestY)
	}
}

func gather(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = y[j]
	}
	return out
}

func vstack(rows []*tensor.Dense) *tensor.Dense {
	if len(rows) == 0 {
		return nil
	}
	total := 0
	for _, r := range rows {
		total += r.Rows
	}
	out := tensor.NewDense(total, rows[0].Cols)
	off := 0
	for _, r := range rows {
		copy(out.Data[off:off+len(r.Data)], r.Data)
		off += len(r.Data)
	}
	return out
}
