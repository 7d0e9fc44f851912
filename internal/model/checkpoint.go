package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/nn"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// Serve checkpoint format. Trainer writes it after a successful run over a
// serveable model; Predictor (predictor.go) restores a forward-only model
// from it onto fresh protocol sessions. The format bundles every party's
// dense source-layer half (the core-layer gob, including the encrypted
// copies of the peer's weight pieces) with the label party's plaintext head
// parameters — exactly the joint state the single-binary runtime held. The
// gob payload is sealed in the versioned checksum envelope (envelope.go), so
// a truncated or bit-flipped checkpoint file fails with the typed
// ErrBadCheckpoint instead of decoding into garbage.

// fedCheckpoint is the gob root of a serve checkpoint.
type fedCheckpoint struct {
	Kind    Kind
	Classes int
	Hyper   Hyper
	InAs    []int // feature party i's column width, len = number of sessions
	InB     int
	LayerA  [][]byte        // feature party i's MatMulA half (core gob)
	LayerB  [][]byte        // label party's session-i MatMulB half (core gob)
	Head    []*tensor.Dense // head parameters in params() order
}

// ckCapture accumulates the per-party checkpoint pieces from inside the
// training closures. captureA(i, ·) is called once per feature party on
// distinct indices and captureB once, so the slices need no locking; write
// assembles and encodes after the run succeeds. A zero/nil-disabled capture
// is a no-op throughout.
type ckCapture struct {
	ck   *fedCheckpoint
	errA []error
	errB error
}

func newCkCapture(t Trainer, ds *data.Dataset, inAs []int) *ckCapture {
	if t.Checkpoint == nil {
		return &ckCapture{}
	}
	return &ckCapture{
		ck: &fedCheckpoint{
			Kind: t.Kind, Classes: ds.Spec.Classes, Hyper: t.Hyper,
			InAs: inAs, InB: ds.TrainB.NumCols(),
			LayerA: make([][]byte, len(inAs)),
		},
		errA: make([]error, len(inAs)),
	}
}

func (c *ckCapture) captureA(i int, ma *FedA) {
	if c.ck == nil {
		return
	}
	c.ck.LayerA[i], c.errA[i] = saveLayerA(ma)
}

func (c *ckCapture) captureB(mb *FedB) {
	if c.ck == nil {
		return
	}
	c.ck.LayerB, c.errB = mb.num.layers(-1)
	c.ck.Head = headParams(mb.head)
}

func (c *ckCapture) write(w io.Writer) error {
	if c.ck == nil {
		return nil
	}
	for _, err := range c.errA {
		if err != nil {
			return err
		}
	}
	if c.errB != nil {
		return c.errB
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.ck); err != nil {
		return fmt.Errorf("model: write checkpoint: %w", err)
	}
	return sealEnvelope(w, buf.Bytes())
}

// errDenseOnly refuses to checkpoint a sparse source layer (Trainer.plan
// turns the request down first; this is the layer-level backstop).
var errDenseOnly = errors.New("model: checkpoint covers dense numeric source layers only")

// saveLayerA serializes a feature party's dense source-layer half.
func saveLayerA(ma *FedA) ([]byte, error) {
	if ma.num.dense == nil {
		return nil, errDenseOnly
	}
	var buf bytes.Buffer
	if err := ma.num.dense.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
		var buf bytes.Buffer
		if err := sub.Save(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
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
