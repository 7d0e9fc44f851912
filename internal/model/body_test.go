package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blindfl/internal/data"
	"blindfl/internal/protocol"
	"blindfl/internal/transport"
)

// The one-body matrix. Trainer has a single training body, so every way of
// reaching it must land on the same trajectory: {k = 1, k = 3} × {fresh,
// killed mid-epoch-2 and resumed from the epoch-1 checkpoint} × {label party
// unsharded, on 1 shard worker, on 2}. Every cell is asserted bit-identical
// — losses, metric, test logits — to its row's fresh unsharded run, which
// the recorded trajectories (trajectory_test.go) in turn pin to the last
// commit that still had separate bodies.

// topology says where the label party's halves live: 0 unsharded (a local
// group), n > 0 on n in-process shard workers.
type topology int

func (tp topology) String() string {
	if tp == 0 {
		return "unsharded"
	}
	return fmt.Sprintf("%d-shard", int(tp))
}

// runOn drives one run of tr over k sessions on topology tp, fresh or
// resumed. killAt > 0 closes a connection at that send ordinal — session 0's
// feature-party endpoint unsharded, the last shard's control link sharded.
// Every stream derives from the hyper seed, as TrainSharded's do, so runs on
// different topologies are comparable bit for bit.
func runOn(t *testing.T, tr Trainer, ds *data.Dataset, k int, tp topology, resume bool, killAt int64) (*History, error) {
	t.Helper()
	seed := tr.Hyper.Seed
	if tp == 0 {
		as, g, _ := faultGroupPipe(t, k, seed, 0, transport.FaultPlan{KillAtMsg: killAt})
		ps := PartySet{As: as, B: g}
		if resume {
			return tr.Resume(ds, ps)
		}
		return tr.Train(ds, ps)
	}
	skAs, skB := shardKeys(t, k)
	dial, wait, stop := StartShardWorkers(int(tp), skB, func(shard, ord int) (transport.Conn, transport.Conn) {
		root, worker := transport.Pair(4096)
		if killAt > 0 && shard == int(tp)-1 && ord == 0 {
			return transport.NewFaultConn(root, 9, "one-body-kill", transport.FaultPlan{KillAtMsg: killAt}), worker
		}
		return root, worker
	})
	ss := ShardSet{Shards: int(tp), SKAs: skAs, Dial: dial}
	var hist *History
	var err error
	if resume {
		hist, err = tr.ResumeSharded(ds, ss)
	} else {
		hist, err = tr.TrainSharded(ds, ss)
	}
	if err != nil {
		stop()
		wait() // drain the workers' cascade errors
		return nil, err
	}
	if werr := wait(); werr != nil {
		t.Fatalf("%v workers: %v", tp, werr)
	}
	return hist, nil
}

// copyDir clones a checkpoint directory, so each resume starts from the
// crashed run's files and not from what an earlier resume deposited.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, f := range ckptFiles(t, src) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestChaosOneBodyMatrix(t *testing.T) {
	h := tinyHyper()
	h.Epochs = 3
	dense := data.Generate(tinySpec("t-body", 12, 12, 2, false), 3)
	sparse := data.Generate(tinySpec("t-body-sp", 60, 6, 2, false), 4)
	rows := []struct {
		k         int
		ds        *data.Dataset
		on        topology   // where the fresh and the killed run execute
		resumeOn  []topology // where the killed run's checkpoint resumes; none: fresh only
		shortLane bool
	}{
		{1, dense, 0, []topology{0, 1}, true},
		{1, dense, 1, []topology{1}, false},
		{3, dense, 0, []topology{0}, true},
		{3, dense, 1, []topology{1}, false},
		// A checkpoint is shard-topology-free: killed on 2 shards, it resumes
		// on 2, on 1, and unsharded.
		{3, dense, 2, []topology{2, 1, 0}, true},
		// The sparse layer has no checkpoint; its rows are the fresh ones.
		{1, sparse, 1, nil, false},
		{3, sparse, 2, nil, false},
	}
	type refKey struct {
		k  int
		ds *data.Dataset
	}
	refs := map[refKey]*History{}
	refMsgs := map[refKey]int64{}
	for _, row := range rows {
		name := fmt.Sprintf("k%d/%s/%v", row.k, row.ds.Spec.Name, row.on)
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !row.shortLane {
				t.Skip("row skipped in -short")
			}
			tr := Trainer{Kind: LR, Hyper: h}
			key := refKey{row.k, row.ds}
			ref := refs[key]
			if ref == nil {
				as, g := fedGroup(t, row.k, h.Seed)
				var err error
				if ref, err = tr.Train(row.ds, PartySet{As: as, B: g}); err != nil {
					t.Fatal(err)
				}
				refs[key] = ref
				refMsgs[key], _ = as[0].Conn.Stats()
			}
			if row.on != 0 {
				fresh, err := runOn(t, tr, row.ds, row.k, row.on, false, 0)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, "fresh", fresh, ref)
			}
			if row.resumeOn == nil {
				return
			}

			// The killed run: mid-epoch 2, so exactly the epoch-1 checkpoint is
			// durable. Unsharded, that is half of session 0's feature-party
			// sends; sharded, the control link carries hello, setup, then one
			// gradient per batch (5 an epoch) — send 10 is epoch 2's third.
			tr.CheckpointDir = t.TempDir()
			killAt, wantErr := refMsgs[key]/2, transport.ErrClosed
			if row.on != 0 {
				killAt, wantErr = 10, protocol.ErrShardLost
			}
			if _, err := runOn(t, tr, row.ds, row.k, row.on, false, killAt); !errors.Is(err, wantErr) {
				t.Fatalf("killed run error = %v, want %v", err, wantErr)
			}
			if files := ckptFiles(t, tr.CheckpointDir); len(files) != 1 || filepath.Base(files[0]) != "ckpt-00001" {
				t.Fatalf("killed run left %v, want exactly the epoch-1 checkpoint", files)
			}
			for _, tp := range row.resumeOn {
				rtr := tr
				rtr.CheckpointDir = copyDir(t, tr.CheckpointDir)
				resumed, err := runOn(t, rtr, row.ds, row.k, tp, true, 0)
				if err != nil {
					t.Fatalf("resume on %v: %v", tp, err)
				}
				requireBitIdentical(t, fmt.Sprintf("killed on %v, resumed on %v", row.on, tp), resumed, ref)
			}
		})
	}
}

// TestChaosPairIgnoresContinueOnLoss: at k = 1 the peer is the whole
// protocol, so ContinueOnLoss must not turn a killed pair into a "lost
// session": the run still fails with the connection error.
func TestChaosPairIgnoresContinueOnLoss(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-pairloss", 12, 12, 2, false), 3)
	pa, pb, _ := fedPipeFault(t, 606, "chaos-pair-loss", transport.FaultPlan{KillAtMsg: 20})
	_, err := Trainer{Kind: LR, Hyper: chaosHyper(), ContinueOnLoss: true}.Train(ds, Pair(pa, pb))
	if !errors.Is(err, transport.ErrClosed) || errors.Is(err, protocol.ErrSessionLost) {
		t.Fatalf("killed pair under ContinueOnLoss: err = %v, want ErrClosed and not ErrSessionLost", err)
	}
}

// TestChaosResumeReportsLostSessions: the loss report is the one body's, so a
// resumed k = 3 run that loses a session under ContinueOnLoss surfaces it
// through History.LostSessions exactly as a fresh run does
// (TestChaosGroupKillContinueOnLoss).
func TestChaosResumeReportsLostSessions(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-resloss", 12, 12, 2, false), 3)
	h := chaosHyper()
	h.Epochs = 3
	tr := Trainer{Kind: LR, Hyper: h, CheckpointDir: t.TempDir(), ContinueOnLoss: true}
	as, g := fedGroup(t, 3, 607)
	if _, err := tr.Train(ds, PartySet{As: as, B: g}); err != nil {
		t.Fatal(err)
	}
	as, g, fc := faultGroupPipe(t, 3, 607, 1, transport.FaultPlan{KillAtMsg: 20})
	hist, err := tr.Resume(ds, PartySet{As: as, B: g})
	if err != nil {
		t.Fatalf("lossy resume failed instead of continuing: %v", err)
	}
	if !fc.Injected().Killed {
		t.Fatal("kill schedule never fired")
	}
	if len(hist.LostSessions) != 3 || hist.LostSessions[0] || !hist.LostSessions[1] || hist.LostSessions[2] {
		t.Fatalf("LostSessions = %v, want exactly session 1 lost", hist.LostSessions)
	}
}

// TestChaosResumeBothSessionsCorrupt rots both label-side layer halves of a
// k = 2 run checkpoint *inside* a valid envelope, so the file passes the
// checksum and the damage is only found when the halves are decoded. The
// resume must report one typed ErrBadCheckpoint and leave the sessions
// untouched. (The two-bodies code restored the halves from concurrent
// ForEach closures that all wrote one shared error variable, and returned
// core's untyped decode error; this test fails there on the type. The shared
// write is unordered only when the closures overlap, which these
// microsecond-long ones rarely do, so -race seldom saw it.)
func TestChaosResumeBothSessionsCorrupt(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-bothrot", 12, 12, 2, false), 3)
	h := chaosHyper()
	h.Epochs = 2
	tr := Trainer{Kind: LR, Hyper: h, CheckpointDir: t.TempDir()}
	as, g := fedGroup(t, 2, 608)
	if _, err := tr.Train(ds, PartySet{As: as, B: g}); err != nil {
		t.Fatal(err)
	}
	files := ckptFiles(t, tr.CheckpointDir)
	if len(files) != 1 {
		t.Fatalf("2-epoch run left %d checkpoints, want 1", len(files))
	}
	ck, err := latestRunCheckpoint(tr.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ck.LayerB {
		ck.LayerB[i] = ck.LayerB[i][:len(ck.LayerB[i])/2]
	}
	var payload, sealed bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		t.Fatal(err)
	}
	if err := sealEnvelope(&sealed, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], sealed.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	as, g = fedGroup(t, 2, 608)
	_, err = tr.Resume(ds, PartySet{As: as, B: g})
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("resume over two rotted halves: err = %v, want ErrBadCheckpoint", err)
	}
	if msgs, _ := as[0].Conn.Stats(); msgs != 1 {
		t.Fatalf("the refused resume sent %d messages on session 0, want only the handshake's", msgs)
	}
}
