package model

import (
	"blindfl/internal/data"
	"blindfl/internal/nn"
	"blindfl/internal/rng"
	"blindfl/internal/tensor"
)

// plainModel is the non-federated mirror of a federated architecture: a
// first linear layer over the numeric features (the plaintext analogue of
// the MatMul source layer), an optional pair of embedding tables with a
// linear projection (the analogue of Embed-MatMul), and the same head.
type plainModel struct {
	kind    Kind
	classes int

	numW *nn.Param // numeric first-layer weights (in×out), no bias
	embA *nn.Embedding
	embB *nn.Embedding
	embW *nn.Param // projection of concatenated embeddings (fields·dim×out)

	head headB
	opt  *nn.SGD

	// forward caches
	xNum  *tensor.Dense
	xSpr  *tensor.CSR
	eCat  *tensor.Dense
	fldsA int
}

// plainInput is one party-view (or the collocated view) of a batch.
type plainInput struct {
	Num  *tensor.Dense
	Spr  *tensor.CSR
	CatA *tensor.IntMatrix // nil when absent
	CatB *tensor.IntMatrix
}

func newPlainModel(kind Kind, classes, numIn, catFieldsA, catFieldsB, vocab int, h Hyper) *plainModel {
	bottom := rng.New(h.Seed, "bottom-init")
	m := &plainModel{kind: kind, classes: classes, fldsA: catFieldsA}
	out := outDim(classes)
	srcOut := sourceOut(kind, classes, h)
	m.numW = nn.NewParam(tensor.RandDense(bottom, numIn, srcOut, 0.1))

	if kind.UsesEmbedding() {
		m.embA = nn.NewEmbedding(bottom, vocab, h.EmbDim, 0.1)
		m.embB = nn.NewEmbedding(bottom, vocab, h.EmbDim, 0.1)
		m.embW = nn.NewParam(tensor.RandDense(bottom, (catFieldsA+catFieldsB)*h.EmbDim, sourceOutEmbed(h), 0.1))
	}

	topRng := rng.New(h.Seed, "head-init")
	switch kind {
	case LR, MLR:
		m.head = &biasHead{bias: nn.NewBias(out)}
	case MLP:
		m.head = &mlpHead{seq: buildMLPTop(topRng, firstHidden(h), restHidden(h), out)}
	case WDL:
		m.head = &wdlHead{deep: buildMLPTop(topRng, sourceOutEmbed(h), restHidden(h), out)}
	case DLRM:
		m.head = &dlrmHead{relu: &nn.ReLU{}, seq: nn.NewSequential(nn.NewLinear(topRng, firstHidden(h), out))}
	}

	params := []*nn.Param{m.numW}
	if m.embW != nil {
		params = append(params, m.embW, m.embA.Q, m.embB.Q)
	}
	params = append(params, m.head.params()...)
	m.opt = nn.NewSGD(h.LR, h.Momentum, params)
	return m
}

func (m *plainModel) forward(in plainInput) *tensor.Dense {
	m.xNum, m.xSpr = in.Num, in.Spr
	var zNum *tensor.Dense
	if in.Spr != nil {
		zNum = in.Spr.MatMul(m.numW.W)
	} else {
		zNum = in.Num.MatMul(m.numW.W)
	}
	var zEmb *tensor.Dense
	if m.embA != nil {
		eA := m.embA.ForwardIdx(in.CatA)
		eB := m.embB.ForwardIdx(in.CatB)
		m.eCat = tensor.HStack(eA, eB)
		zEmb = m.eCat.MatMul(m.embW.W)
	}
	return m.head.forward(zNum, zEmb)
}

func (m *plainModel) backward(gradLogits *tensor.Dense) {
	gNum, gEmb := m.head.backward(gradLogits)
	if m.xSpr != nil {
		m.numW.Grad.AddInPlace(m.xSpr.TransposeMatMul(gNum))
	} else {
		m.numW.Grad.AddInPlace(m.xNum.TransposeMatMul(gNum))
	}
	if gEmb != nil {
		m.embW.Grad.AddInPlace(m.eCat.TransposeMatMul(gEmb))
		gE := gEmb.MatMulTranspose(m.embW.W)
		dim := m.embA.Dim
		m.embA.BackwardIdx(gE.SliceCols(0, m.fldsA*dim))
		m.embB.BackwardIdx(gE.SliceCols(m.fldsA*dim, gE.Cols))
	}
}

func (m *plainModel) lossGrad(logits *tensor.Dense, y []int) (float64, *tensor.Dense) {
	if m.classes == 2 {
		return nn.BCEWithLogits(logits, y)
	}
	return nn.SoftmaxCE(logits, y)
}

func (m *plainModel) step(in plainInput, y []int) float64 {
	logits := m.forward(in)
	loss, grad := m.lossGrad(logits, y)
	m.opt.ZeroGrad()
	m.backward(grad)
	m.opt.Step()
	return loss
}

// collocatedInput joins both parties' views into one.
func collocatedInput(a, b data.Part, idx []int) plainInput {
	ab, bb := a.Batch(idx), b.Batch(idx)
	in := plainInput{CatA: ab.Cat, CatB: bb.Cat}
	if ab.Sparse != nil {
		in.Spr = hstackCSR(ab.Sparse, bb.Sparse)
	} else {
		in.Num = tensor.HStack(ab.Dense, bb.Dense)
	}
	return in
}

// partyBInput uses Party B's view only; the categorical fields of A are
// absent so the B table sees only its own fields.
func partyBInput(b data.Part, idx []int) plainInput {
	bb := b.Batch(idx)
	in := plainInput{Num: bb.Dense, Spr: bb.Sparse}
	if bb.Cat != nil {
		// Model is built with catFieldsA = 0; all fields route to CatB.
		in.CatA = tensor.NewIntMatrix(bb.Cat.Rows, 0)
		in.CatB = bb.Cat
	}
	return in
}

// hstackCSR concatenates two CSR matrices horizontally.
func hstackCSR(a, b *tensor.CSR) *tensor.CSR {
	out := tensor.NewCSR(a.Rows, a.Cols+b.Cols, a.NNZ()+b.NNZ())
	for i := 0; i < a.Rows; i++ {
		ca, va := a.RowNNZ(i)
		cb, vb := b.RowNNZ(i)
		cols := make([]int, 0, len(ca)+len(cb))
		vals := make([]float64, 0, len(ca)+len(cb))
		cols = append(cols, ca...)
		vals = append(vals, va...)
		for k, c := range cb {
			cols = append(cols, c+a.Cols)
			vals = append(vals, vb[k])
		}
		out.AppendRow(cols, vals)
	}
	return out
}

// trainPlain runs the shared plaintext loop, over the batch schedule the
// federated run with the same hyper-parameters follows.
func trainPlain(m *plainModel, mkBatch func(idx []int) plainInput, y []int, n int,
	testIn func() []plainInput, testY []int, classes int, h Hyper) *History {

	hist := &History{MetricName: metricName(classes)}
	schedule{h: h, rows: n}.each(nil, func(idx []int) {
		hist.Losses = append(hist.Losses, m.step(mkBatch(idx), gather(y, idx)))
	}, nil)
	var rows []*tensor.Dense
	for _, in := range testIn() {
		rows = append(rows, m.forward(in))
	}
	hist.TestLogits = vstack(rows)
	if classes == 2 {
		hist.TestMetric = nn.AUC(nn.Scores(hist.TestLogits), testY)
	} else {
		hist.TestMetric = nn.Accuracy(hist.TestLogits, testY)
	}
	return hist
}

// TrainCollocated trains the plaintext architecture on the virtually joined
// features of both parties — the paper's NonFed-collocated upper baseline.
func TrainCollocated(kind Kind, ds *data.Dataset, h Hyper) *History {
	fldsA, fldsB := 0, 0
	if ds.TrainA.Cat != nil {
		fldsA, fldsB = ds.TrainA.Cat.Cols, ds.TrainB.Cat.Cols
	}
	m := newPlainModel(kind, ds.Spec.Classes, ds.TrainA.NumCols()+ds.TrainB.NumCols(),
		fldsA, fldsB, ds.Spec.CatVocab, h)
	return trainPlain(m,
		func(idx []int) plainInput { return collocatedInput(ds.TrainA, ds.TrainB, idx) },
		ds.TrainY, ds.TrainA.Rows(),
		func() []plainInput {
			var out []plainInput
			for _, idx := range data.BatchIndices(ds.TestA.Rows(), h.Batch) {
				out = append(out, collocatedInput(ds.TestA, ds.TestB, idx))
			}
			return out
		},
		ds.TestY, ds.Spec.Classes, h)
}

// TrainPartyB trains the plaintext architecture on Party B's features only —
// the paper's NonFed-Party B lower baseline.
func TrainPartyB(kind Kind, ds *data.Dataset, h Hyper) *History {
	fldsB := 0
	if ds.TrainB.Cat != nil {
		fldsB = ds.TrainB.Cat.Cols
	}
	m := newPlainModel(kind, ds.Spec.Classes, ds.TrainB.NumCols(), 0, fldsB, ds.Spec.CatVocab, h)
	return trainPlain(m,
		func(idx []int) plainInput { return partyBInput(ds.TrainB, idx) },
		ds.TrainY, ds.TrainB.Rows(),
		func() []plainInput {
			var out []plainInput
			for _, idx := range data.BatchIndices(ds.TestB.Rows(), h.Batch) {
				out = append(out, partyBInput(ds.TestB, idx))
			}
			return out
		},
		ds.TestY, ds.Spec.Classes, h)
}
