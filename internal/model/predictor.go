package model

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"blindfl/internal/core"
	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Predictor is the forward-only model blindfl-serve runs: the dense source
// layers restored from a serve checkpoint onto live protocol sessions, plus
// the label party's plaintext head. Train and serve share one forward path —
// the layers' serve protocol is exactly the one training-time evaluation
// used — so served logits are bit-identical to the checkpointed model's
// reported test logits.
//
// The serve-session weight exchange runs once at construction; the encrypted
// weight pieces then never change, so every query reuses their Straus tables
// out of the persistent dot-table cache.
type Predictor struct {
	kind    Kind
	classes int
	inAs    []int
	inB     int

	as   []*protocol.Peer
	g    *protocol.Group
	las  []*core.MatMulA
	lb   *core.MultiMatMulB
	head headB

	// mu serializes batches: the serve protocol is a fixed message sequence
	// per session, so concurrent callers must not interleave. The serve
	// Server (internal/serve) batches concurrent requests into lanes above
	// this lock rather than contending on it per request.
	mu sync.Mutex
}

// NewPredictor restores a Predictor from a checkpoint — the one
// Trainer.Checkpoint receives, or any run checkpoint — onto the party set's
// live sessions and runs the serve-session weight exchange. The party set
// must span exactly the checkpoint's feature-party count. The stream must
// carry a sealed checkpoint envelope; a truncated, corrupted or foreign
// stream — or one whose contents do not add up to a model — fails with the
// typed (and permanent) ErrBadCheckpoint before any session is touched.
func NewPredictor(r io.Reader, ps PartySet) (*Predictor, error) {
	ck, err := readCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if err := ps.check("NewPredictor"); err != nil {
		return nil, err
	}
	if k := len(ck.InAs); ps.K() != k {
		return nil, fmt.Errorf("%w: it spans %d feature parties, party set has %d", errCkMismatch, k, ps.K())
	}

	p := &Predictor{
		kind: ck.Kind, classes: ck.Classes,
		inAs: ck.InAs, inB: ck.InB,
		as: ps.As, g: ps.B,
	}
	if p.head, err = restoreHead(ck.Kind, ck.Classes, ck.Hyper, ck.Head); err != nil {
		return nil, err
	}
	out := sourceOut(ck.Kind, ck.Classes, ck.Hyper)
	if p.las, err = loadLayers(core.LoadMatMulA, ck.LayerA, ps.As, ck.InAs, ck.InB, out); err != nil {
		return nil, err
	}
	subs, err := loadLayers(core.LoadMatMulB, ck.LayerB, ps.B.Peers, ck.InAs, ck.InB, out)
	if err != nil {
		return nil, err
	}
	p.lb = core.NewMultiMatMulBFrom(ps.B, subs)
	applyOptions(ck.Hyper.Options, slices.Concat(ps.As, ps.B.Peers)...)
	err = protocol.RunGroup(ps.As, ps.B,
		func(i int) { p.las[i].ServeStart() },
		func() { p.lb.ServeStart() })
	if err != nil {
		return nil, err
	}
	return p, nil
}

// RetryPredictor opens a Predictor with bounded retry-with-backoff — the
// recovery path for transient serve-session setup failures (a feature party
// restarting, a connection dropped or corrupted during the weight exchange).
// open(attempt) must build fresh sessions each call: a failed weight
// exchange closes the whole group, so the old connections are unusable.
// Only transport failures (ErrClosed, ErrCorrupt, ErrTimeout) are retried —
// a malformed checkpoint (ErrBadCheckpoint) or shape mismatch is permanent
// and fails immediately. The wait before retry n is backoff·2ⁿ⁻¹; sleep is
// the only side effect between attempts. Returns the last error after
// attempts failures.
func RetryPredictor(attempts int, backoff time.Duration, open func(attempt int) (*Predictor, error)) (*Predictor, error) {
	if attempts < 1 {
		return nil, fmt.Errorf("model: RetryPredictor needs at least one attempt")
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff << (i - 1))
		}
		var p *Predictor
		if p, err = open(i); err == nil {
			return p, nil
		}
		if !errors.Is(err, transport.ErrClosed) && !errors.Is(err, transport.ErrCorrupt) &&
			!errors.Is(err, transport.ErrTimeout) {
			return nil, err // permanent: retrying cannot change the outcome
		}
	}
	return nil, fmt.Errorf("model: serve-session setup failed after %d attempts: %w", attempts, err)
}

// K returns the number of feature parties the model spans.
func (p *Predictor) K() int { return len(p.inAs) }

// InAs returns the per-feature-party column widths.
func (p *Predictor) InAs() []int { return p.inAs }

// InB returns the label party's feature width.
func (p *Predictor) InB() int { return p.inB }

// Kind returns the model family.
func (p *Predictor) Kind() Kind { return p.kind }

// Classes returns the label cardinality.
func (p *Predictor) Classes() int { return p.classes }

// LabelPK returns the label party's public key — the key serve-side blinding
// pools warm for.
func (p *Predictor) LabelPK() *paillier.PublicKey { return &p.g.Peers[0].SK.PublicKey }

// Lanes returns the packing width of a serve batch: requests fill ciphertext
// lanes, so batches of this size cost the same homomorphic work as one
// request. Both directions of every session pack, so the effective width is
// the minimum over all keys involved.
func (p *Predictor) Lanes() int {
	lanes := hetensor.Lanes(&p.g.Peers[0].SK.PublicKey)
	for _, a := range p.as {
		if l := hetensor.Lanes(&a.SK.PublicKey); l < lanes {
			lanes = l
		}
	}
	return lanes
}

// PredictBatch runs one federated serve forward over a batch of requests.
// xAs[i] holds feature party i's columns of every request (rows align across
// parties); xB the label party's. Returns the batch logits. Safe for
// concurrent use; batches are serialized internally.
func (p *Predictor) PredictBatch(xAs []*tensor.Dense, xB *tensor.Dense) (*tensor.Dense, error) {
	if err := p.checkBatch(xAs, xB); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var logits *tensor.Dense
	err := protocol.RunGroup(p.as, p.g,
		func(i int) { p.las[i].ServeForward(xAs[i]) },
		func() { logits = p.head.forward(p.lb.ServeForward(xB), nil) })
	if err != nil {
		return nil, err
	}
	return logits, nil
}

// PlainLogits computes the same batch logits directly from the secret-shared
// weight pieces in the exact integer domain — no protocol, no masking. The
// serve forward reconstructs the identical integer sum (integer addition is
// commutative and masks cancel exactly), so PlainLogits is bit-identical to
// PredictBatch: the reference the AHEAD-style integrity spot-check compares
// served responses against. Only the single-binary simulation, which holds
// both parties' pieces, can compute it.
func (p *Predictor) PlainLogits(xAs []*tensor.Dense, xB *tensor.Dense) (*tensor.Dense, error) {
	if err := p.checkBatch(xAs, xB); err != nil {
		return nil, err
	}
	z := hetensor.IntMatMulT(xB, p.lb.Sub(0).UB)
	for i := range p.las {
		z.AddInPlace(hetensor.IntMatMulT(xAs[i], p.las[i].UA))
		z.AddInPlace(hetensor.IntMatMulT(xAs[i], p.lb.Sub(i).VA))
		z.AddInPlace(hetensor.IntMatMulT(xB, p.las[i].VB))
		if i > 0 {
			z.AddInPlace(hetensor.IntMatMulT(xB, p.lb.Sub(i).UB))
		}
	}
	return p.head.forward(z.DecodeTranspose(), nil), nil
}

func (p *Predictor) checkBatch(xAs []*tensor.Dense, xB *tensor.Dense) error {
	if len(xAs) != len(p.inAs) {
		return fmt.Errorf("model: batch spans %d feature parties, model has %d", len(xAs), len(p.inAs))
	}
	if xB == nil || xB.Rows == 0 {
		return fmt.Errorf("model: empty batch")
	}
	if xB.Cols != p.inB {
		return fmt.Errorf("model: label-party features have %d columns, model wants %d", xB.Cols, p.inB)
	}
	for i, x := range xAs {
		if x == nil || x.Rows != xB.Rows {
			return fmt.Errorf("model: feature party %d batch rows mismatch", i)
		}
		if x.Cols != p.inAs[i] {
			return fmt.Errorf("model: feature party %d has %d columns, model wants %d", i, x.Cols, p.inAs[i])
		}
	}
	return nil
}
