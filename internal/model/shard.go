package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Sharded label party (PR 10): the root process keeps the plaintext head,
// the loss, the optimizer and the training history, while the k sessions'
// B-side protocol halves partition across shard worker processes
// (RunShardWorker, shardworker.go) on the deterministic schedule of
// protocol.ShardPlan. Every process derives the identical per-epoch plan —
// batch permutation, mask streams, checkpoint epochs — from the shared seed
// shipped in the setup document, so no scheduling traffic crosses the shard
// links at all: per batch the workers push their per-session forward
// partials up, the root folds them in global session order (the float sum is
// not associative, so the merge order is part of the schedule), runs the
// head, and broadcasts one gradient back down. The sharded run is
// bit-identical to the single-process Trainer.Train over the same party set,
// for any shard count.

// ShardSet describes the worker fleet a sharded run spans: how many shard
// workers, one Paillier key per feature-party session, and the dialer that
// opens a fresh connection to a shard worker (the control link first, then
// one conn per owned session, all through the same dialer).
type ShardSet struct {
	Shards int
	SKAs   []*paillier.PrivateKey
	Dial   func(shard int) (transport.Conn, error)
}

// shardSetup is the gob document the root ships to every worker over the
// control link (sealed inside a transport.ShardBlob): everything a worker
// needs to derive the deterministic schedule and run its session slice —
// model shape, hyper-parameters (with the engine options embedded), the
// label party's feature parts, and the resume state. Workers slice InAs and
// LayerB by their plan range; TrainB/TestB are whole (every worker replays
// the same batch permutation over the same rows).
type shardSetup struct {
	Kind    Kind
	Classes int
	Hyper   Hyper
	InAs    []int // global per-session feature widths
	InB     int
	TrainB  data.Part
	TestB   data.Part

	StartEpoch      int  // completed epochs to replay through (resume)
	CheckpointEvery int  // run-checkpoint stride (ckptDue)
	RunCkpt         bool // workers send layer blobs at checkpoint epochs
	ServeCapture    bool // workers send final layer blobs for the serve checkpoint
	ServeEval       bool // evaluation runs the exact-integer serve path

	Resume bool
	LayerB [][]byte // resume only: every session's restored B half
}

// fingerprint hashes everything that determines the deterministic schedule:
// the model shape, the full hyper-parameters (seed, batch, epochs, engine
// options), the session/shard plan and the checkpoint plan. The root
// computes it from its Trainer, the worker recomputes it from the decoded
// setup document with this same function, and the two must agree before any
// training traffic flows — so a version-skewed worker whose schedule
// derivation differs, or a worker overriding options locally, fails typed
// with protocol.ErrShardMismatch instead of silently diverging.
func (su *shardSetup) fingerprint(plan protocol.ShardPlan) uint64 {
	f := fnv.New64a()
	fmt.Fprintf(f, "%s|%d|%+v|%v|%d|%d/%d|%d|%d|%v|%v|%v|%v|%016x",
		su.Kind, su.Classes, su.Hyper, su.InAs, su.InB,
		plan.Sessions, plan.Shards, su.StartEpoch, su.CheckpointEvery,
		su.RunCkpt, su.ServeCapture, su.ServeEval, su.Resume,
		su.Hyper.Options.Fingerprint())
	return f.Sum64()
}

// shardSrcB is the root's numeric source-layer facade over the shard group:
// the forward gathers every shard's per-session partials and folds them in
// global session order (exactly the single-process sumInOrder), the backward
// broadcasts the one gradient, and the serve forward folds the exact-integer
// share partials before the single decode. The feature parts the Fed loops
// pass in are ignored — the workers hold the label party's features.
type shardSrcB struct {
	sg *protocol.ShardGroup
}

func (s *shardSrcB) forward(_ data.Part) *tensor.Dense { return foldParts(s.sg.GatherParts()) }

func (s *shardSrcB) backward(g *tensor.Dense) { s.sg.BroadcastGrad(g) }

// serveStart is a no-op at the root: the serve-session weight exchange runs
// between the workers' B halves and the feature parties directly.
func (s *shardSrcB) serveStart() {}

func (s *shardSrcB) serveForward(_ *tensor.Dense) *tensor.Dense {
	return s.sg.GatherShareSum().DecodeTranspose()
}

// foldParts folds per-session forward partials in global session order — the
// fixed merge order that makes the sharded float sum bit-identical to the
// single-process one (core's sumInOrder, applied to gathered partials).
func foldParts(zs []*tensor.Dense) *tensor.Dense {
	var z *tensor.Dense
	for _, zi := range zs {
		if zi == nil {
			continue
		}
		if z == nil {
			z = zi
		} else {
			z.AddInPlace(zi)
		}
	}
	return z
}

// noopSeeder satisfies epochSeeder for the shard root, whose B-side peers
// live in the workers: each worker re-seeds its own session group at every
// epoch boundary (the same g.SeedEpoch call the single-process run makes).
type noopSeeder struct{}

func (noopSeeder) SeedEpoch(int) {}

// TrainSharded runs federated training with the label party sharded across
// the worker fleet and returns the training history — Trainer.Train's
// k-party semantics, bit-identical for any shard count (a 1-shard run is the
// single-process run over one control link). Numeric families only, like
// trainMulti; checkpoints follow the same Serveable rule.
func (t Trainer) TrainSharded(ds *data.Dataset, ss ShardSet) (*History, error) {
	return t.trainSharded(ds, ss, nil)
}

// ResumeSharded restores the newest usable run checkpoint from CheckpointDir
// onto a fresh worker fleet and trains the remaining epochs, bit-identical to
// the uninterrupted run. The fleet's shard count may differ from the
// checkpointed run's (and from an unsharded run's): every per-session stream
// is a pure function of the global session index, so re-partitioning the
// sessions across workers never moves a mask stream, and the checkpoint
// stores per-session layer halves that re-slice cleanly.
func (t Trainer) ResumeSharded(ds *data.Dataset, ss ShardSet) (*History, error) {
	if t.CheckpointDir == "" {
		return nil, fmt.Errorf("model: ResumeSharded needs CheckpointDir")
	}
	ck, err := latestRunCheckpoint(t.CheckpointDir)
	if err != nil {
		return nil, err
	}
	return t.trainSharded(ds, ss, ck)
}

func (t Trainer) trainSharded(ds *data.Dataset, ss ShardSet, ck *runCheckpoint) (*History, error) {
	kind, h, k := t.Kind, t.Hyper, len(ss.SKAs)
	if k == 0 || ss.Dial == nil {
		return nil, fmt.Errorf("model: TrainSharded needs feature-party keys and a shard dialer")
	}
	if kind.UsesEmbedding() {
		return nil, fmt.Errorf("model: sharded training covers the numeric families lr|mlr|mlp; %s needs a multi-party Embed-MatMul layer", kind)
	}
	if cols := ds.TrainA.NumCols(); k > cols {
		return nil, fmt.Errorf("model: cannot split %d feature columns across %d parties", cols, k)
	}
	if (t.Checkpoint != nil || t.CheckpointDir != "") && !Serveable(kind, ds) {
		return nil, fmt.Errorf("model: checkpoints cover the dense numeric families (lr|mlr|mlp on dense data); %s is not serveable here", t.Kind)
	}
	plan := protocol.ShardPlan{Sessions: k, Shards: ss.Shards}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	trainAs := data.SplitCols(ds.TrainA, k)
	testAs := data.SplitCols(ds.TestA, k)
	inAs := make([]int, k)
	for i, p := range trainAs {
		inAs[i] = p.NumCols()
	}
	start := 0
	if ck != nil {
		if err := t.resumeCompat(ck, k); err != nil {
			return nil, err
		}
		for i, p := range trainAs {
			if p.NumCols() != ck.InAs[i] {
				return nil, fmt.Errorf("model: feature party %d has %d columns, checkpoint wants %d", i, p.NumCols(), ck.InAs[i])
			}
		}
		start = ck.Epoch
	}

	su := &shardSetup{
		Kind: kind, Classes: ds.Spec.Classes, Hyper: h,
		InAs: inAs, InB: ds.TrainB.NumCols(),
		TrainB: ds.TrainB, TestB: ds.TestB,
		StartEpoch:      start,
		CheckpointEvery: t.CheckpointEvery,
		RunCkpt:         t.CheckpointDir != "",
		ServeCapture:    t.Checkpoint != nil,
		ServeEval:       Serveable(kind, ds),
	}
	if ck != nil {
		su.Resume = true
		su.LayerB = ck.LayerB
	}
	fp := su.fingerprint(plan)
	var doc bytes.Buffer
	if err := gob.NewEncoder(&doc).Encode(su); err != nil {
		return nil, fmt.Errorf("model: encode shard setup: %w", err)
	}

	sg, err := protocol.ConnectShards(plan, fp, ss.Dial)
	if err != nil {
		return nil, err
	}
	for s := 0; s < plan.Shards; s++ {
		if err := sg.Setup(s, "setup", doc.Bytes(), fp); err != nil {
			sg.Close()
			return nil, err
		}
	}
	conns, err := sg.DialSessions(fp, ss.Dial)
	if err != nil {
		return nil, err
	}
	as := make([]*protocol.Peer, k)
	hsErrs := make(chan error, k)
	for i, c := range conns {
		a := protocol.NewPeer(protocol.PartyA, c, ss.SKAs[i], protocol.SessionRNG(h.Seed, i, protocol.PartyA))
		a.SetStreamIdentity(h.Seed, i)
		as[i] = a
		go func(a *protocol.Peer) { hsErrs <- a.Handshake() }(a)
	}
	var hsErr error
	for i := 0; i < k; i++ {
		if err := <-hsErrs; err != nil && hsErr == nil {
			hsErr = err
		}
	}
	if hsErr != nil {
		sg.Close()
		return nil, hsErr
	}

	hist := &History{MetricName: metricName(ds.Spec.Classes)}
	if ck != nil {
		hist.Losses = append([]float64(nil), ck.Losses...)
	}
	cc := newCkCapture(t, ds, inAs)
	rc := newRunCkpt(t, ds, inAs)
	if rc != nil {
		rc.shards = plan.Shards
	}

	restoreErrA := make([]error, k)
	var rootErr error
	err = protocol.RunShardRoot(as, sg,
		func(i int) error {
			err := as[i].Run(func() {
				var ma *FedA
				if ck == nil {
					ma = NewFedAMulti(as[i], kind, ds, h, inAs[i], k)
				} else {
					la, err := core.LoadMatMulA(bytes.NewReader(ck.LayerA[i]), as[i])
					if err != nil {
						restoreErrA[i] = err
						return
					}
					la.ResumeExchange()
					ma = &FedA{num: &numericSrcA{dense: la}}
				}
				trainLoopA(as[i], ma, trainAs[i], h, start, func(e int) { rc.depositA(e, i, ma) })
				evalA(ma, kind, ds, testAs[i], h.Batch)
				cc.captureA(i, ma)
			})
			if restoreErrA[i] != nil {
				return restoreErrA[i]
			}
			return err
		},
		func() error {
			err := protocol.Catch("PartyB", func() {
				var mb *FedB
				if ck == nil {
					mb = &FedB{kind: kind, classes: ds.Spec.Classes, num: &shardSrcB{sg: sg}}
					mb.finishTop(kind, ds.Spec.Classes, h)
				} else {
					m, err := restoredFedB(ck, &shardSrcB{sg: sg})
					if err != nil {
						rootErr = err
						return
					}
					mb = m
				}
				trainLoopB(noopSeeder{}, mb, ds, h, hist, start, func(e int) {
					if rc.due(e) {
						rc.depositShardB(e, sg.GatherLayers(e), mb, hist.Losses)
					}
				})
				hist.TestLogits = evalB(mb, ds, h)
				if t.Checkpoint != nil {
					cc.captureShardB(sg.GatherLayers(-1), mb)
				}
			})
			if rootErr != nil {
				return rootErr
			}
			return err
		})
	for i := 0; i < k; i++ {
		if restoreErrA[i] != nil {
			return nil, restoreErrA[i]
		}
	}
	if rootErr != nil {
		return nil, rootErr
	}
	if err != nil {
		return nil, err
	}
	sg.Close()
	if err := rc.finish(); err != nil {
		return nil, err
	}
	if err := cc.write(t.Checkpoint); err != nil {
		return nil, err
	}
	finishHistory(hist, ds)
	return hist, nil
}
