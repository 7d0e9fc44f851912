package model

import (
	"fmt"
	"io"
	"slices"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/nn"
	"blindfl/internal/protocol"
	"blindfl/internal/rng"
	"blindfl/internal/tensor"
)

// Trainer is the single federated-training entry point, and it has one
// training body (run). Two identities make that literal rather than a
// convention: a pair is a one-session group — Algorithm 3 reduces to the
// two-party protocol at k = 1, so a two-party run is the k-party body over a
// 1-session party set — and a fresh run is a resume from epoch 0 with nothing
// to restore, on local sessions (Train, Resume) or with the label party's
// halves out in shard workers (TrainSharded, ResumeSharded).
type Trainer struct {
	Kind  Kind
	Hyper Hyper

	// Checkpoint, when set, receives the checkpoint of the final epoch after
	// a successful run — CheckpointDir's format, and the stream blindfl-serve
	// restores through NewPredictor (Serveable models; every family's resumes
	// under a raised epoch count). A real deployment would have each party
	// persist its own half; the combined stream matches the single-binary
	// simulation runtime, and still contains no more than the parties'
	// processes jointly held.
	Checkpoint io.Writer

	// CheckpointDir, when set, makes the run crash-recoverable: every
	// CheckpointEvery completed epochs the parties settle and deposit their
	// layer halves, the label party adds its head, optimizer momentum and
	// the loss history, and the assembled run checkpoint is written to
	// CheckpointDir/ckpt-<epoch> — sealed in the checksum envelope, via a
	// temp file and an atomic rename, so a crash mid-write never leaves a
	// half-written file a later Resume could trip over. Resume restores the
	// newest usable checkpoint onto fresh sessions and continues the run
	// bit-exactly. The final epoch is Checkpoint's, not the directory's.
	// Every family and layout checkpoints.
	CheckpointDir string

	// CheckpointEvery is the epoch stride between run checkpoints; values
	// below 1 mean every epoch. Ignored without CheckpointDir.
	CheckpointEvery int

	// ContinueOnLoss opts a k>1 run into session-loss tolerance
	// (protocol.Group.ContinueOnLoss): when a feature party's connection
	// dies mid-run, the surviving k−1 sessions finish the epoch and the
	// loss is surfaced through History.LostSessions instead of aborting.
	// Integrity failures (transport.ErrCorrupt) still abort regardless.
	// Ignored for two-party runs, where the peer is the whole protocol: a
	// killed pair fails with transport.ErrClosed.
	ContinueOnLoss bool
}

// PartySet bundles the live protocol sessions a training run (or a serve
// session) spans: one feature-party peer per session plus the label party's
// group handle over the same sessions, in matching order.
type PartySet struct {
	As []*protocol.Peer
	B  *protocol.Group
}

// K returns the number of sessions (feature parties).
func (ps PartySet) K() int { return len(ps.As) }

// check refuses an empty or lopsided set on behalf of the entry point op.
func (ps PartySet) check(op string) error {
	if ps.B == nil || ps.K() == 0 {
		return fmt.Errorf("model: %s needs a non-empty party set", op)
	}
	if ps.K() != ps.B.K() {
		return fmt.Errorf("model: party set has %d feature parties for %d sessions", ps.K(), ps.B.K())
	}
	return nil
}

// Pair wraps a two-party session as a 1-session party set — a 1-party group
// is exactly the two-party protocol (same RNG streams, same arithmetic).
func Pair(pa, pb *protocol.Peer) PartySet {
	return PartySet{As: []*protocol.Peer{pa}, B: protocol.NewGroup([]*protocol.Peer{pb})}
}

// Train runs federated training over the party set and returns the label
// party's history. Party A's feature columns are split into K() contiguous
// blocks (data.SplitCols: widths differ by at most one, so uneven
// dimensionalities lose no columns; one block is the whole part); the
// mini-batch order is derived from the shared hyper-parameter seed, standing
// in for the order the parties would agree on at setup time. All five
// families train at k = 1; k > 1 covers the numeric ones (lr|mlr|mlp), whose
// source layer is the MatMul protocol Algorithm 3 generalizes.
//
// RunGroup closes every session's connections on the first party error, so a
// one-sided failure unblocks the survivors with transport.ErrClosed instead
// of hanging, and the returned error is the root cause (first to arrive).
func (t Trainer) Train(ds *data.Dataset, ps PartySet) (*History, error) {
	if err := ps.check("Train"); err != nil {
		return nil, err
	}
	return t.trainGroup(ds, ps, nil)
}

// trainGroup runs the body over a checked party set's local sessions, fresh
// (ck nil) or resumed.
func (t Trainer) trainGroup(ds *data.Dataset, ps PartySet, ck *runCheckpoint) (*History, error) {
	pl, err := t.plan(ds, ps.K(), ck, false)
	if err != nil {
		return nil, err
	}
	ps.B.ContinueOnLoss = t.ContinueOnLoss && ps.K() > 1
	applyOptions(t.Hyper.Options, slices.Concat(ps.As, ps.B.Peers)...)
	return t.run(pl, ps.As, &groupSide{g: ps.B})
}

// runPlan is a validated run description: what the body derives from the
// trainer, the dataset, the session count and the checkpoint before any
// session is touched.
type runPlan struct {
	kind            Kind
	classes         int
	lay             sourceLayout
	cfg             core.Config      // the numeric layer's; GroupParties is k
	emb             core.EmbedConfig // an embedding family's Embed-MatMul layer's
	inB             int
	ds              *data.Dataset
	inAs            []int       // feature party i's column width
	trainAs, testAs []data.Part // feature party i's column block
	ck              *runCheckpoint
	sched           schedule
}

// plan validates a run of k sessions over ds, resumed from ck unless nil.
// sharded says the label party's halves will live in shard workers.
func (t Trainer) plan(ds *data.Dataset, k int, ck *runCheckpoint, sharded bool) (*runPlan, error) {
	// The embedding layer attaches to the run's one local session; a k-party
	// or sharded run would need a multi-party Embed-MatMul layer.
	if t.Kind.UsesEmbedding() && (k > 1 || sharded) {
		return nil, fmt.Errorf("model: k-party and sharded training cover the numeric families lr|mlr|mlp; %s needs a multi-party Embed-MatMul layer", t.Kind)
	}
	if cols := ds.TrainA.NumCols(); k > cols {
		return nil, fmt.Errorf("model: cannot split %d feature columns across %d parties", cols, k)
	}
	trainAs := data.SplitCols(ds.TrainA, k)
	inAs := make([]int, k)
	for i, p := range trainAs {
		inAs[i] = p.NumCols()
	}
	pl := newPlan(t.Kind, ds.Spec.Classes, t.Hyper, layoutOf(t.Kind, ds), inAs, ds.TrainB.NumCols())
	pl.ds, pl.ck, pl.trainAs, pl.testAs = ds, ck, trainAs, data.SplitCols(ds.TestA, k)
	pl.sched = schedule{h: t.Hyper, rows: ds.TrainB.Rows()}
	if t.CheckpointDir != "" {
		pl.sched.ckptEvery = max(1, t.CheckpointEvery)
	}
	pl.sched.ckptFinal = t.Checkpoint != nil
	if ck != nil {
		if err := t.resumeCompat(ck, pl); err != nil {
			return nil, err
		}
		pl.sched.start = ck.Epoch
	}
	return pl, nil
}

// newPlan is the shape of a run's source-layer halves — the layer configs a
// Hyper implies for a family over a layout: what the halves are built to,
// and what restored ones are vetted against — with nothing yet to train.
func newPlan(kind Kind, classes int, h Hyper, lay sourceLayout, inAs []int, inB int) *runPlan {
	cfg := core.Config{Out: sourceOut(kind, classes, h), LR: h.LR, Momentum: h.Momentum, GroupParties: len(inAs)}
	emb := core.EmbedConfig{Config: core.Config{Out: sourceOutEmbed(h), LR: h.LR, Momentum: h.Momentum},
		VocabA: lay.Vocab, VocabB: lay.Vocab, FieldsA: lay.FieldsA, FieldsB: lay.FieldsB, Dim: h.EmbDim}
	return &runPlan{kind: kind, classes: classes, lay: lay, cfg: cfg, emb: emb, inAs: inAs, inB: inB}
}

// schedule is a run's batch plan — a pure function of (seed, rows, batch,
// start epoch) and the checkpoint stride. Every process of a run (each
// feature party, the label party, every shard worker, and the plaintext
// baselines) derives it on its own from the shared seed and iterates it in
// lockstep, so no scheduling message ever crosses a link (the Calvin
// discipline): there is one copy of it, here.
type schedule struct {
	h         Hyper
	rows      int  // training instances
	start     int  // completed epochs to replay through (nonzero on resume)
	ckptEvery int  // run-checkpoint stride in epochs; 0: no run checkpoints
	ckptFinal bool // the final epoch deposits too (Trainer.Checkpoint is set)
}

// each iterates the plan. The batch-order stream is advanced through the
// start completed epochs, so the remaining ones see exactly the permutations
// the uninterrupted run would have; seedEpoch (the party's mask-stream
// re-derivation, nil for none) fires at every epoch boundary, step for every
// mini-batch, and ckpt after each epoch that deposits a checkpoint: every
// ckptEvery-th epoch before the last (for CheckpointDir), and the last one
// when ckptFinal is set (for Trainer.Checkpoint). Every party — feature
// parties, the label party or shard root, and every shard worker — makes the
// same decision, so the deposits of one epoch always assemble.
func (s schedule) each(seedEpoch func(e int), step func(idx []int), ckpt func(e int)) {
	order := rng.New(s.h.Seed, "batch-order")
	for e := 0; e < s.h.Epochs; e++ {
		if e < s.start {
			data.Shuffle(order, s.rows)
			continue
		}
		if seedEpoch != nil {
			seedEpoch(e)
		}
		perm := data.Shuffle(order, s.rows)
		for lo := 0; lo < len(perm); lo += s.h.Batch {
			step(perm[lo:min(lo+s.h.Batch, len(perm))])
		}
		last := e+1 == s.h.Epochs
		if last && s.ckptFinal || !last && s.ckptEvery > 0 && (e+1)%s.ckptEvery == 0 {
			ckpt(e)
		}
	}
}

// labelSide is where the label party's k protocol halves live during a run:
// on a local protocol.Group (groupSide), or out in shard workers with the
// root keeping only the head (shardSide, shard.go).
type labelSide interface {
	// restore decodes the label-side halves of the plan's checkpoint, before
	// any session traffic; a fresh run has nothing to restore.
	restore(pl *runPlan) error
	// open builds — or, after restore, resumes — the source layers: the
	// numeric one, then an embedding family's Embed-MatMul half. It runs
	// inside the label closure, concurrently with the feature parties
	// opening theirs.
	open(pl *runPlan) (numSrcB, *core.EmbedMatMulB)
	// run drives the k feature-party closures and the label closure to
	// completion, closing everything on the first error.
	run(as []*protocol.Peer, fa func(i int), fb func()) error
	// lost reports sessions that died under ContinueOnLoss, nil for none.
	lost() []bool
}

// groupSide is the label party on local sessions.
type groupSide struct {
	g *protocol.Group
	// The restored halves awaiting their resume exchange, nil on a fresh
	// run: each session's numeric half, and an embedding family's
	// Embed-MatMul half.
	subs []core.NumericB
	emb  *core.EmbedMatMulB
}

func (s *groupSide) restore(pl *runPlan) (err error) {
	if pl.ck != nil {
		s.subs, s.emb, err = loadSide(pl, pl.ck.LayerB, pl.ck.EmbB, s.g.Peers, core.LoadMatMulB, core.LoadEmbedMatMulB)
	}
	return err
}

// open is the label party's side of openA on a local group: the numeric
// layer over every session, then the embedding half on the run's one
// session, each built fresh or resumed.
func (s *groupSide) open(pl *runPlan) (numSrcB, *core.EmbedMatMulB) {
	num := &groupSrcB{g: s.g, l: pl.openGroup(s.g, s.subs)}
	switch {
	case !pl.kind.UsesEmbedding():
		return num, nil
	case s.emb == nil:
		return num, core.NewEmbedMatMulB(s.g.Peers[0], pl.emb)
	}
	s.emb.ResumeExchange()
	return num, s.emb
}

func (s *groupSide) run(as []*protocol.Peer, fa func(i int), fb func()) error {
	return protocol.RunGroup(as, s.g, fa, fb)
}

func (s *groupSide) lost() []bool {
	if s.g.LostCount() == 0 {
		return nil
	}
	return s.g.Lost()
}

// runState is what a run starts from: the head and its optimizer, the loss
// history so far and, on a resume, the feature parties' restored halves (the
// label side keeps its own, labelSide.restore).
type runState struct {
	head   headB
	opt    *nn.SGD
	losses []float64
	fas    []*FedA // feature party i's restored halves; nil ones on a fresh run
}

// restore is the first half of the body. A fresh run is a resume from epoch
// 0 with nothing to restore; a resumed one decodes and vets every half of
// the checkpoint here, touching no session — so a rotted checkpoint is one
// typed error, with the sessions still usable.
func (t Trainer) restore(pl *runPlan, as []*protocol.Peer, lb labelSide) (*runState, error) {
	kind, classes, h := t.Kind, pl.classes, t.Hyper
	st := &runState{fas: make([]*FedA, len(as))}
	var mom []*tensor.Dense
	if ck := pl.ck; ck == nil {
		st.head = buildHead(kind, classes, h)
	} else {
		// A restored head's widths come from the checkpoint: restoreHead vets
		// them before it builds anything.
		var err error
		if st.head, err = restoreHead(kind, classes, h, ck.Head); err != nil {
			return nil, err
		}
		nums, emb, err := loadSide(pl, ck.LayerA, ck.EmbA, as, core.LoadMatMulA, core.LoadEmbedMatMulA)
		if err != nil {
			return nil, err
		}
		for i, num := range nums {
			st.fas[i] = &FedA{num: num}
		}
		st.fas[0].emb = emb // an embedding family runs one session
		if err = lb.restore(pl); err != nil {
			return nil, err
		}
		st.losses, mom = append([]float64(nil), ck.Losses...), ck.HeadMom
	}
	st.opt = nn.NewSGD(h.LR, h.Momentum, st.head.params())
	return st, setMomentum(st.opt, st.head, mom)
}

// run is the one training body: k feature parties on as against the label
// party on lb, from the plan's start epoch — every half built or resumed,
// everything after that the same code whatever k, whichever side of a crash,
// wherever the label party's halves live.
func (t Trainer) run(pl *runPlan, as []*protocol.Peer, lb labelSide) (*History, error) {
	kind, h, ds := t.Kind, t.Hyper, pl.ds
	st, err := t.restore(pl, as, lb)
	if err != nil {
		return nil, err
	}
	hist := &History{MetricName: metricName(ds.Spec.Classes), Losses: st.losses}

	rc := newRunCkpt(t, pl)
	err = lb.run(as,
		func(i int) {
			ma := pl.openA(as[i], i, st.fas[i])
			pl.sched.each(as[i].SeedEpoch,
				func(idx []int) { ma.StepA(pl.trainAs[i].Batch(idx)) },
				func(e int) { ma.settle(); rc.depositA(e, i, ma) })
			ma.settle()
			evalA(ma, kind, ds, pl.testAs[i], h.Batch)
		},
		func() {
			num, emb := lb.open(pl)
			mb := &FedB{kind: kind, classes: ds.Spec.Classes, num: num, emb: emb, head: st.head, opt: st.opt}
			pl.sched.each(mb.num.seedEpoch,
				func(idx []int) {
					hist.Losses = append(hist.Losses, mb.StepB(ds.TrainB.Batch(idx), gather(ds.TrainY, idx)))
				},
				func(e int) { mb.settle(); rc.depositB(e, mb, hist.Losses) })
			mb.settle()
			hist.TestLogits = evalB(mb, ds, h)
		})
	if err != nil {
		return nil, err
	}
	if lost := lb.lost(); lost != nil {
		hist.LostSessions = lost
		// A lost session's layer half was never deposited; a checkpoint with a
		// hole would load as garbage, so a lossy run refuses to write one.
		if t.Checkpoint != nil {
			return nil, fmt.Errorf("model: %w: sessions lost mid-run (%v), refusing to write a partial checkpoint",
				protocol.ErrSessionLost, lost)
		}
	}
	if err := rc.finish(); err != nil {
		return nil, err
	}
	finishHistory(hist, ds)
	return hist, nil
}
