package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/nn"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// Checkpoint format. There is one gob root, runCheckpoint, sealed in the
// versioned checksum envelope (envelope.go): a run writes it every
// CheckpointEvery epochs into CheckpointDir (runckpt.go) and, for
// Trainer.Checkpoint, after the last epoch — the stream NewPredictor serves
// from. It holds plaintext only: each party's settled source-layer halves
// (pieces, momentum and config, through core's Save), the head and its
// momentum, the loss prefix, the source layout and the engine fingerprint.
// The encrypted copies of the peer's pieces are under per-session keys, so
// every restore redoes the exchange that mints them.

// runCheckpoint is the gob root of every checkpoint. Nothing in it says how
// the label party was sharded when it was written: the layer halves are
// stored per *session*, and every per-session stream is a pure function of
// the global session index, so a checkpoint resumes onto any shard count
// (including unsharded) bit-exactly.
type runCheckpoint struct {
	Kind        Kind
	Classes     int
	Hyper       Hyper
	Layout      sourceLayout
	InAs        []int // feature party i's column width, len = number of sessions
	InB         int
	Epoch       int       // completed epochs at capture time
	Losses      []float64 // per-iteration loss prefix through Epoch
	LayerA      [][]byte  // feature party i's MatMul half
	LayerB      [][]byte  // the label party's session-i MatMul half
	EmbA, EmbB  []byte    // an embedding family's Embed-MatMul halves; nil for the rest
	Head        []*tensor.Dense
	HeadMom     []*tensor.Dense // head optimizer momentum, params() order
	Fingerprint uint64          // engine.Options.Fingerprint() of the run
}

// writeCheckpoint gob-encodes ck and seals it onto w.
func writeCheckpoint(w io.Writer, ck *runCheckpoint) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return fmt.Errorf("model: encode checkpoint: %w", err)
	}
	return sealEnvelope(w, buf.Bytes())
}

// readCheckpoint is the one checkpoint decoder, behind NewPredictor and the
// resume scan alike: open the envelope, decode the gob root, and vet that it
// names a family and spans a non-empty party set with one MatMul half per
// session on each side. Every refusal is a typed ErrBadCheckpoint; the
// halves and the head are vetted where they are restored (loadSide,
// restoreHead).
func readCheckpoint(r io.Reader) (*runCheckpoint, error) {
	payload, err := openEnvelope(r)
	if err != nil {
		return nil, err
	}
	var ck runCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadCheckpoint, err)
	}
	if _, err := ParseKind(string(ck.Kind)); err != nil || ck.Classes < 2 {
		return nil, fmt.Errorf("%w: family %q over %d classes", ErrBadCheckpoint, ck.Kind, ck.Classes)
	}
	k := len(ck.InAs)
	if k == 0 || len(ck.LayerA) != k || len(ck.LayerB) != k || ck.Epoch < 1 {
		return nil, fmt.Errorf("%w: malformed (%d parties, %d A layers, %d B layers, epoch %d)",
			ErrBadCheckpoint, k, len(ck.LayerA), len(ck.LayerB), ck.Epoch)
	}
	return &ck, nil
}

// sourceLayout says what a run's source-layer halves are: a dense or a
// sparse MatMul layer and, for the embedding families, the Embed-MatMul
// layer's vocabulary and field counts (zero without one). Every checkpoint
// records it, so a resume onto data of another layout is refused even where
// the feature widths agree.
type sourceLayout struct {
	Sparse           bool
	Vocab            int
	FieldsA, FieldsB int
}

// layoutOf is the layout a family has over ds.
func layoutOf(kind Kind, ds *data.Dataset) sourceLayout {
	lay := sourceLayout{Sparse: !ds.Spec.Dense()}
	if kind.UsesEmbedding() {
		lay.Vocab, lay.FieldsA, lay.FieldsB = ds.Spec.CatVocab, ds.TrainA.Cat.Cols, ds.TrainB.Cat.Cols
	}
	return lay
}

// plan is the shape the checkpoint declares for its halves.
func (ck *runCheckpoint) plan() *runPlan {
	pl := newPlan(ck.Kind, ck.Classes, ck.Hyper, ck.Layout, ck.InAs, ck.InB)
	pl.ck = ck
	return pl
}

// saveHalf serializes one settled half into a blob of its own.
func saveHalf(h core.Half) ([]byte, error) {
	var buf bytes.Buffer
	err := h.Save(&buf)
	return buf.Bytes(), err
}

// saveGroup serializes a group layer's per-session halves, in session order.
func saveGroup(l *core.MultiMatMulB) ([][]byte, error) {
	out := make([][]byte, l.K())
	for i := range out {
		var err error
		if out[i], err = saveHalf(l.Sub(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loadSide decodes one side's halves onto peers: each session's MatMul
// half from its blob in nums and, for an embedding family, the Embed-MatMul
// half from emb onto the run's one session, each vetted against the plan's
// shape. It runs sequentially, before any session traffic: a rotted half —
// or bytes past one — is one typed ErrBadCheckpoint naming it, and the
// sessions are left untouched.
func loadSide[N, E any](pl *runPlan, nums [][]byte, emb []byte, peers []*protocol.Peer,
	loadNum func(io.Reader, *protocol.Peer, bool, int, int, int) (N, error),
	loadEmb func(io.Reader, *protocol.Peer, core.EmbedConfig) (E, error)) (ns []N, e E, err error) {
	ns = make([]N, len(nums))
	for i, blob := range nums {
		if ns[i], err = loadHalf(blob, func(r io.Reader) (N, error) {
			return loadNum(r, peers[i], pl.lay.Sparse, pl.inAs[i], pl.inB, pl.cfg.Out)
		}); err != nil {
			return nil, e, fmt.Errorf("%w: session %d: %v", ErrBadCheckpoint, i, err)
		}
	}
	if pl.kind.UsesEmbedding() {
		if e, err = loadHalf(emb, func(r io.Reader) (E, error) { return loadEmb(r, peers[0], pl.emb) }); err != nil {
			return nil, e, fmt.Errorf("%w: embedding half: %v", ErrBadCheckpoint, err)
		}
	}
	return ns, e, nil
}

// loadHalf decodes a blob that holds exactly one half.
func loadHalf[H any](blob []byte, load func(io.Reader) (H, error)) (H, error) {
	r := bytes.NewReader(blob)
	h, err := load(r)
	if err == nil && r.Len() > 0 {
		err = fmt.Errorf("%d bytes past the half", r.Len())
	}
	return h, err
}

// headParams clones the head's parameters in params() order.
func headParams(h headB) []*tensor.Dense {
	ps := h.params()
	out := make([]*tensor.Dense, len(ps))
	for i, p := range ps {
		out[i] = p.W.Clone()
	}
	return out
}

// restoreHead rebuilds a family's plaintext head through the training-time
// constructor (so the module shapes match) and overwrites its parameters
// with saved — the one head restore behind Predictor and Resume. The family
// and class count are readCheckpoint's to vet; the widths may come from the
// checkpoint itself, so they are vetted arithmetically before anything is
// built: the head's linear layers must fit in the elements saved actually
// carries, which bounds the allocation by the input. Every refusal is a
// typed ErrBadCheckpoint.
func restoreHead(kind Kind, classes int, h Hyper, saved []*tensor.Dense) (headB, error) {
	have := 0
	for _, w := range saved {
		if w != nil {
			have += len(w.Data)
		}
	}
	// The widths of the head's linear layers, input first: an MLP tower
	// (MLP, WDL), one layer (DLRM), or none (a bias: LR, MLR).
	dims := []int{outDim(classes)}
	switch kind {
	case MLP, WDL:
		dims = append(append([]int{firstHidden(h)}, restHidden(h)...), dims...)
	case DLRM:
		dims = []int{firstHidden(h), dims[0]}
	}
	for i, d := range dims {
		if d < 1 || d > have || i > 0 && dims[i-1]*d > have {
			return nil, fmt.Errorf("%w: head widths %v do not fit the %d saved parameters", ErrBadCheckpoint, dims, have)
		}
	}
	head := buildHead(kind, classes, h)
	params := head.params()
	if len(params) != len(saved) {
		return nil, fmt.Errorf("%w: head has %d parameters, %s wants %d", ErrBadCheckpoint, len(saved), kind, len(params))
	}
	for i, par := range params {
		if !saved[i].WellFormed(par.W.Rows, par.W.Cols) {
			return nil, fmt.Errorf("%w: head parameter %d is not a finite %d×%d matrix", ErrBadCheckpoint, i, par.W.Rows, par.W.Cols)
		}
		copy(par.W.Data, saved[i].Data)
	}
	return head, nil
}

// setMomentum restores the head optimizer's velocity buffers, so a resumed
// momentum trajectory continues rather than restarting from rest. mom is nil
// for a checkpoint of a momentum-free head; anything else must be shaped
// like the head's parameters.
func setMomentum(opt *nn.SGD, head headB, mom []*tensor.Dense) error {
	params := head.params()
	if mom != nil && len(mom) != len(params) {
		return fmt.Errorf("%w: %d momentum buffers for %d head parameters", ErrBadCheckpoint, len(mom), len(params))
	}
	for i, b := range mom {
		if !b.WellFormed(params[i].W.Rows, params[i].W.Cols) {
			return fmt.Errorf("%w: momentum buffer %d is not a finite %d×%d matrix", ErrBadCheckpoint, i, params[i].W.Rows, params[i].W.Cols)
		}
	}
	opt.SetMomentumState(mom)
	return nil
}
