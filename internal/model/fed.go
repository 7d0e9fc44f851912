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

// numericSrcA adapts the dense and sparse MatMul halves behind one facade.
type numericSrcA struct {
	dense  *core.MatMulA
	sparse *core.SparseMatMulA
}

func (s *numericSrcA) forward(p data.Part) {
	if s.sparse != nil {
		s.sparse.Forward(p.Sparse)
		return
	}
	s.dense.Forward(core.DenseFeatures{M: p.Dense})
}

func (s *numericSrcA) backward() {
	if s.sparse != nil {
		s.sparse.Backward()
		return
	}
	s.dense.Backward()
}

func (s *numericSrcA) serveStart() {
	if s.sparse != nil {
		panic("model: the serve path covers dense numeric source layers only")
	}
	s.dense.ServeStart()
}

func (s *numericSrcA) serveForward(x *tensor.Dense) { s.dense.ServeForward(x) }

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
	serveStart()
	serveForward(x *tensor.Dense) *tensor.Dense
	// layers serializes the per-session dense halves, in session order, at
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

// openGroupLayer opens the k-session numeric source layer on g: built fresh,
// or assembled from restored halves (loadLayers) and put through the resume
// exchange. Must run concurrently with the feature parties opening theirs.
func openGroupLayer(g *protocol.Group, subs []*core.MatMulB, cfg core.Config, inAs []int, inB int, sparse bool) *core.MultiMatMulB {
	if subs == nil {
		return core.NewMultiMatMulB(g, cfg, inAs, inB, sparse)
	}
	l := core.NewMultiMatMulBFrom(g, subs)
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
func (s *groupSrcB) serveStart()              { s.l.ServeStart() }

func (s *groupSrcB) serveForward(x *tensor.Dense) *tensor.Dense { return s.l.ServeForward(x) }

func (s *groupSrcB) layers(int) ([][]byte, error) { return saveLayersB(s.l) }

// FedA is Party A's half of a federated model: at most one numeric source
// layer and one Embed-MatMul source layer, mirroring FedB.
type FedA struct {
	num *numericSrcA
	emb *core.EmbedMatMulA
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

// coreCfg assembles the source-layer Config a Hyper implies for a family.
func coreCfg(kind Kind, classes int, h Hyper) core.Config {
	return core.Config{Out: sourceOut(kind, classes, h), LR: h.LR, Momentum: h.Momentum}
}

// NewFedA builds Party A's model half. Must run concurrently with NewFedB.
func NewFedA(p *protocol.Peer, kind Kind, ds *data.Dataset, h Hyper) *FedA {
	applyOptions(h.Options, p)
	return newFedA(p, kind, ds, h, ds.TrainA.NumCols(), 1)
}

// newFedA builds one feature party's half of a k-session run over its inA
// columns: the ordinary two-party A-half with the run's k agreed in the
// layer Config. The embedding layer attaches for the embedding families,
// which train at k = 1 only (Trainer.plan).
func newFedA(p *protocol.Peer, kind Kind, ds *data.Dataset, h Hyper, inA, k int) *FedA {
	m := &FedA{}
	cfg := coreCfg(kind, ds.Spec.Classes, h)
	cfg.GroupParties = k
	inB := ds.TrainB.NumCols()
	if ds.Spec.Dense() {
		m.num = &numericSrcA{dense: core.NewMatMulA(p, cfg, inA, inB)}
	} else {
		m.num = &numericSrcA{sparse: core.NewSparseMatMulA(p, cfg, inA, inB)}
	}
	if kind.UsesEmbedding() {
		m.emb = core.NewEmbedMatMulA(p, embedCfg(kind, ds, h))
	}
	return m
}

// NewFedB builds Party B's model half with the plaintext top model: the
// label party of a one-session group.
func NewFedB(p *protocol.Peer, kind Kind, ds *data.Dataset, h Hyper) *FedB {
	applyOptions(h.Options, p)
	g := protocol.NewGroup([]*protocol.Peer{p})
	l := openGroupLayer(g, nil, coreCfg(kind, ds.Spec.Classes, h), []int{ds.TrainA.NumCols()}, ds.TrainB.NumCols(), !ds.Spec.Dense())
	head := buildHead(kind, ds.Spec.Classes, h)
	return newFedB(kind, ds, h, &groupSrcB{g: g, l: l}, p, head, nn.NewSGD(h.LR, h.Momentum, head.params()))
}

// newFedB assembles the label party's half around an opened numeric source
// layer and a head built (or restored) beforehand. The embedding layer, for
// the embedding families, attaches to embPeer — the run's one session —
// after the numeric layer, the order their init draws have always had.
func newFedB(kind Kind, ds *data.Dataset, h Hyper, num numSrcB, embPeer *protocol.Peer, head headB, opt *nn.SGD) *FedB {
	m := &FedB{kind: kind, classes: ds.Spec.Classes, num: num, head: head, opt: opt}
	if kind.UsesEmbedding() {
		m.emb = core.NewEmbedMatMulB(embPeer, embedCfg(kind, ds, h))
	}
	return m
}

// buildHead constructs the plaintext head for a family, drawing its init
// from the (h.Seed+77) stream. The Predictor rebuilds heads through the same
// constructor before overwriting the parameters from a checkpoint, so the
// module shapes always match the training-time head.
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

func embedCfg(kind Kind, ds *data.Dataset, h Hyper) core.EmbedConfig {
	out := sourceOutEmbed(h)
	if kind == DLRM {
		out = firstHidden(h)
	}
	return core.EmbedConfig{
		Config:  core.Config{Out: out, LR: h.LR, Momentum: h.Momentum},
		VocabA:  ds.Spec.CatVocab,
		VocabB:  ds.Spec.CatVocab,
		FieldsA: ds.TrainA.Cat.Cols,
		FieldsB: ds.TrainB.Cat.Cols,
		Dim:     h.EmbDim,
	}
}

// StepA runs Party A's forward and backward for one mini-batch.
func (m *FedA) StepA(p data.Part) {
	m.num.forward(p)
	if m.emb != nil {
		m.emb.Forward(p.Cat)
	}
	m.num.backward()
	if m.emb != nil {
		m.emb.Backward()
	}
}

// ForwardA runs Party A's inference-only pass.
func (m *FedA) ForwardA(p data.Part) {
	m.num.forward(p)
	if m.emb != nil {
		m.emb.Forward(p.Cat)
	}
}

// forwardB runs Party B's forward and returns the logits.
func (m *FedB) forwardB(p data.Part) *tensor.Dense {
	zNum := m.num.forward(p)
	var zEmb *tensor.Dense
	if m.emb != nil {
		zEmb = m.emb.Forward(p.Cat)
	}
	return m.head.forward(zNum, zEmb)
}

// StepB runs Party B's full training step and returns the mini-batch loss.
func (m *FedB) StepB(p data.Part, y []int) float64 {
	logits := m.forwardB(p)
	loss, grad := m.lossGrad(logits, y)
	m.opt.ZeroGrad()
	gNum, gEmb := m.head.backward(grad)
	m.opt.Step()
	m.num.backward(gNum)
	if m.emb != nil {
		m.emb.Backward(gEmb)
	}
	return loss
}

// ForwardB runs Party B's inference-only pass and returns the logits.
func (m *FedB) ForwardB(p data.Part) *tensor.Dense { return m.forwardB(p) }

// Serveable reports whether a family/dataset pair is covered by the serve
// path: the dense numeric families (LR, MLR, MLP). The embedding families
// and sparse datasets keep the training-shaped forward only.
func Serveable(kind Kind, ds *data.Dataset) bool {
	return !kind.UsesEmbedding() && ds.Spec.Dense()
}

// ServeStart opens a serve session on Party A's numeric source layer (the
// unpacked weight-piece exchange). Serveable models only; must run
// concurrently with FedB.ServeStart.
func (m *FedA) ServeStart() { m.num.serveStart() }

// ServeForward runs Party A's half of a batched serve forward.
func (m *FedA) ServeForward(x *tensor.Dense) { m.num.serveForward(x) }

// ServeStart opens a serve session on Party B's numeric source layer.
func (m *FedB) ServeStart() { m.num.serveStart() }

// ServeForward runs Party B's half of a batched serve forward and applies
// the plaintext head. This is the inference path blindfl-serve runs; the
// training-time evaluation of serveable models goes through it too, so a
// Predictor restored from a checkpoint is bit-identical to the reported
// test logits.
func (m *FedB) ServeForward(x *tensor.Dense) *tensor.Dense {
	return m.head.forward(m.num.serveForward(x), nil)
}

func (m *FedB) lossGrad(logits *tensor.Dense, y []int) (float64, *tensor.Dense) {
	if m.classes == 2 {
		return nn.BCEWithLogits(logits, y)
	}
	return nn.SoftmaxCE(logits, y)
}

// evalB computes Party B's test-set logits. Serveable models evaluate
// through the exact-integer serve forward (mask- and engine-independent, so
// a later Predictor reproduces these logits bit for bit); the rest use the
// training forward. Must run concurrently with evalA's matching branch.
func evalB(mb *FedB, ds *data.Dataset, h Hyper) *tensor.Dense {
	serveable := Serveable(mb.kind, ds)
	if serveable {
		mb.ServeStart()
	}
	var rows []*tensor.Dense
	for _, idx := range data.BatchIndices(ds.TestB.Rows(), h.Batch) {
		p := ds.TestB.Batch(idx)
		if serveable {
			rows = append(rows, mb.ServeForward(p.Dense))
		} else {
			rows = append(rows, mb.ForwardB(p))
		}
	}
	return vstack(rows)
}

// evalA is Party A's half of the test-set evaluation, mirroring evalB's
// serve/training branch. testA is this party's test split (a column block of
// ds.TestA in the multi-party case).
func evalA(ma *FedA, kind Kind, ds *data.Dataset, testA data.Part, batch int) {
	serveable := Serveable(kind, ds)
	if serveable {
		ma.ServeStart()
	}
	for _, idx := range data.BatchIndices(testA.Rows(), batch) {
		p := testA.Batch(idx)
		if serveable {
			ma.ServeForward(p.Dense)
		} else {
			ma.ForwardA(p)
		}
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
