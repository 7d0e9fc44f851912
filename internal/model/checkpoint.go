package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"blindfl/internal/core"
	"blindfl/internal/nn"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// Checkpoint format. There is one gob root, runCheckpoint, sealed in the
// versioned checksum envelope (envelope.go): a run writes it every
// CheckpointEvery epochs into CheckpointDir (runckpt.go) and, for
// Trainer.Checkpoint, after the last epoch — the stream NewPredictor serves
// from. It holds plaintext only: each layer half's pieces, momentum and
// config (core checkpoint.go), the head and its momentum, the loss prefix and
// the engine fingerprint. The encrypted copies of the peer's pieces are under
// per-session keys, so every restore redoes the exchange that mints them.

// runCheckpoint is the gob root of every checkpoint. Nothing in it says how
// the label party was sharded when it was written: the layer halves are
// stored per *session*, and every per-session stream is a pure function of
// the global session index, so a checkpoint resumes onto any shard count
// (including unsharded) bit-exactly.
type runCheckpoint struct {
	Kind        Kind
	Classes     int
	Hyper       Hyper
	InAs        []int // feature party i's column width, len = number of sessions
	InB         int
	Epoch       int       // completed epochs at capture time
	Losses      []float64 // per-iteration loss prefix through Epoch
	LayerA      [][]byte  // feature party i's MatMulA half (core gob)
	LayerB      [][]byte  // label party's session-i MatMulB half (core gob)
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
// spans a non-empty party set with one layer half per session on each side.
// Every refusal is a typed ErrBadCheckpoint; the halves and the head are
// vetted where they are restored (loadLayers, restoreHead).
func readCheckpoint(r io.Reader) (*runCheckpoint, error) {
	payload, err := openEnvelope(r)
	if err != nil {
		return nil, err
	}
	var ck runCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadCheckpoint, err)
	}
	k := len(ck.InAs)
	if k == 0 || len(ck.LayerA) != k || len(ck.LayerB) != k || ck.Epoch < 1 {
		return nil, fmt.Errorf("%w: malformed (%d parties, %d A layers, %d B layers, epoch %d)",
			ErrBadCheckpoint, k, len(ck.LayerA), len(ck.LayerB), ck.Epoch)
	}
	return &ck, nil
}

// errDenseOnly refuses to checkpoint a sparse source layer (Trainer.plan
// turns the request down first; this is the layer-level backstop).
var errDenseOnly = errors.New("model: checkpoint covers dense numeric source layers only")

// saveLayerA serializes a feature party's dense source-layer half.
func saveLayerA(ma *FedA) ([]byte, error) {
	if ma.num.dense == nil {
		return nil, errDenseOnly
	}
	return saveHalf(ma.num.dense)
}

// saveLayersB serializes the label party's dense per-session halves, in the
// layer's session order.
func saveLayersB(l *core.MultiMatMulB) ([][]byte, error) {
	out := make([][]byte, l.K())
	for i := range out {
		sub := l.Sub(i)
		if sub == nil {
			return nil, errDenseOnly
		}
		var err error
		if out[i], err = saveHalf(sub); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// saveHalf serializes one core layer half.
func saveHalf(l interface{ Save(io.Writer) error }) ([]byte, error) {
	var buf bytes.Buffer
	err := l.Save(&buf)
	return buf.Bytes(), err
}

// loadLayers decodes per-session layer halves blobs[i] onto peers[i] with
// load (core.LoadMatMulA or core.LoadMatMulB), each checked against the shape
// the checkpoint declares. It runs sequentially, before any session traffic:
// a rotted half is one typed ErrBadCheckpoint naming its session, and the
// sessions are left untouched.
func loadLayers[L any](load func(io.Reader, *protocol.Peer, int, int, int) (L, error),
	blobs [][]byte, peers []*protocol.Peer, inAs []int, inB, out int) ([]L, error) {
	halves := make([]L, len(blobs))
	for i, blob := range blobs {
		var err error
		if halves[i], err = load(bytes.NewReader(blob), peers[i], inAs[i], inB, out); err != nil {
			return nil, fmt.Errorf("%w: session %d: %v", ErrBadCheckpoint, i, err)
		}
	}
	return halves, nil
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
// with saved — the one head restore behind Predictor and Resume. The family,
// class count and widths may come from the checkpoint itself, so they are
// vetted arithmetically before anything is built: the head's linear layers
// must fit in the elements saved actually carries, which bounds the
// allocation by the input. Every refusal is a typed ErrBadCheckpoint.
func restoreHead(kind Kind, classes int, h Hyper, saved []*tensor.Dense) (headB, error) {
	if _, err := ParseKind(string(kind)); err != nil || kind.UsesEmbedding() || classes < 2 {
		return nil, fmt.Errorf("%w: head of family %q over %d classes (checkpoints cover lr|mlr|mlp)", ErrBadCheckpoint, kind, classes)
	}
	have := 0
	for _, w := range saved {
		if w != nil {
			have += len(w.Data)
		}
	}
	dims := []int{outDim(classes)}
	if kind == MLP {
		dims = append(append([]int{firstHidden(h)}, restHidden(h)...), dims...)
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
