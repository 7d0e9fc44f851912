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

	StartEpoch int  // completed epochs to replay through (resume)
	CkptEvery  int  // run-checkpoint stride (schedule.ckptEvery); 0: none
	CkptFinal  bool // the final epoch deposits too (schedule.ckptFinal)
	ServeEval  bool // evaluation runs the exact-integer serve path

	LayerB [][]byte // resume only: every session's B half to restore
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
	fmt.Fprintf(f, "%s|%d|%+v|%v|%d|%d/%d|%d|%d|%v|%v|%v|%016x",
		su.Kind, su.Classes, su.Hyper, su.InAs, su.InB,
		plan.Sessions, plan.Shards, su.StartEpoch, su.CkptEvery,
		su.CkptFinal, su.ServeEval, su.LayerB != nil,
		su.Hyper.Options.Fingerprint())
	return f.Sum64()
}

// shardSrcB is the root's numeric source-layer facade over the shard group:
// the forward gathers every shard's per-session partials and folds them in
// global session order (the single-process layer's tensor.SumInOrder, over
// the same terms), the backward broadcasts the one gradient, and the serve
// forward folds the exact-integer share partials before the single decode.
// The feature parts the Fed loops pass in are ignored — the workers hold the
// label party's features.
type shardSrcB struct {
	sg *protocol.ShardGroup
}

// seedEpoch is a no-op at the root: each worker re-seeds its own session
// group at every epoch boundary of the shared schedule.
func (s *shardSrcB) seedEpoch(int) {}

func (s *shardSrcB) forward(data.Part) *tensor.Dense { return tensor.SumInOrder(s.sg.GatherParts()) }

func (s *shardSrcB) backward(g *tensor.Dense) { s.sg.BroadcastGrad(g) }

// serveStart is a no-op at the root: the serve-session weight exchange runs
// between the workers' B halves and the feature parties directly.
func (s *shardSrcB) serveStart() {}

func (s *shardSrcB) serveForward(*tensor.Dense) *tensor.Dense {
	return s.sg.GatherShareSum().DecodeTranspose()
}

func (s *shardSrcB) layers(epoch int) ([][]byte, error) { return s.sg.GatherLayers(epoch), nil }

// shardSide is the label party with its halves out in the shard workers.
type shardSide struct{ sg *protocol.ShardGroup }

// restore has nothing to decode at the root: the workers were handed the
// checkpoint's halves in the setup document and restore their own slices.
func (s shardSide) restore(*runPlan, int) error { return nil }

func (s shardSide) open(*runPlan, core.Config) numSrcB { return &shardSrcB{sg: s.sg} }
func (s shardSide) embPeer() *protocol.Peer            { return nil }
func (s shardSide) lost() []bool                       { return nil }

func (s shardSide) run(as []*protocol.Peer, fa func(i int), fb func()) error {
	return protocol.RunShardRoot(as, s.sg,
		func(i int) error { return as[i].Run(func() { fa(i) }) },
		func() error { return protocol.Catch("PartyB", fb) })
}

// TrainSharded runs federated training with the label party sharded across
// the worker fleet and returns the training history — Trainer.Train's
// k-party semantics, bit-identical for any shard count (a 1-shard run is the
// single-process run over one control link). Numeric families only;
// checkpoints follow the same Serveable rule.
func (t Trainer) TrainSharded(ds *data.Dataset, ss ShardSet) (*History, error) {
	return t.trainShards(ds, ss, nil)
}

// ResumeSharded restores the newest usable run checkpoint from CheckpointDir
// onto a fresh worker fleet and trains the remaining epochs, bit-identical to
// the uninterrupted run. The fleet's shard count may differ from the
// checkpointed run's (and from an unsharded run's): every per-session stream
// is a pure function of the global session index, so re-partitioning the
// sessions across workers never moves a mask stream, and the checkpoint
// stores per-session layer halves that re-slice cleanly.
func (t Trainer) ResumeSharded(ds *data.Dataset, ss ShardSet) (*History, error) {
	ck, err := t.latestCheckpoint("ResumeSharded")
	if err != nil {
		return nil, err
	}
	return t.trainShards(ds, ss, ck)
}

// trainShards runs the body with the label party's halves in the fleet:
// plan, ship every worker the setup document, dial the sessions, run.
func (t Trainer) trainShards(ds *data.Dataset, ss ShardSet, ck *runCheckpoint) (*History, error) {
	h, k := t.Hyper, len(ss.SKAs)
	if k == 0 || ss.Dial == nil {
		return nil, fmt.Errorf("model: TrainSharded needs feature-party keys and a shard dialer")
	}
	plan := protocol.ShardPlan{Sessions: k, Shards: ss.Shards}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	pl, err := t.plan(ds, k, ck, true)
	if err != nil {
		return nil, err
	}
	su := &shardSetup{
		Kind: t.Kind, Classes: ds.Spec.Classes, Hyper: h,
		InAs: pl.inAs, InB: ds.TrainB.NumCols(),
		TrainB: ds.TrainB, TestB: ds.TestB,
		StartEpoch: pl.sched.start,
		CkptEvery:  pl.sched.ckptEvery,
		CkptFinal:  pl.sched.ckptFinal,
		ServeEval:  Serveable(t.Kind, ds),
	}
	if ck != nil {
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
	// Whatever run returns, the fleet is done: a failed run has torn it down
	// already, and Close is close-once.
	defer sg.Close()
	return t.run(pl, as, shardSide{sg: sg})
}
