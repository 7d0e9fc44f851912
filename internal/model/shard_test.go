package model

import (
	"bufio"
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// shardKeys builds the ShardSet key material for k sessions from the shared
// test keys — the same keys fedGroup uses, so a sharded run and a GroupPipe
// baseline decrypt identical plaintexts.
func shardKeys(t testing.TB, k int) ([]*paillier.PrivateKey, *paillier.PrivateKey) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	skAs := make([]*paillier.PrivateKey, k)
	for i := range skAs {
		skAs[i] = skA
	}
	return skAs, skB
}

// TestShardServeCheckpointBitIdentity: a serve checkpoint captured from a
// sharded run (worker layer blobs re-slotted in global session order)
// restores onto fresh single-process sessions and serves the training-time
// test logits bit for bit — the checkpoint format is shard-oblivious.
func TestShardServeCheckpointBitIdentity(t *testing.T) {
	const k = 2
	ds := data.Generate(tinySpec("t-shardck", 14, 14, 2, false), 36)
	h := tinyHyper()
	var buf bytes.Buffer
	hist, err := runOn(t, Trainer{Kind: LR, Hyper: h, Checkpoint: &buf}, ds, k, 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}

	skAs, skB := shardKeys(t, k)
	as, g, err := protocol.GroupPipe(skAs, skB, 711)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(bytes.NewReader(buf.Bytes()), PartySet{As: as, B: g})
	if err != nil {
		t.Fatal(err)
	}
	testAs := data.SplitCols(ds.TestA, k)
	xAs := make([]*tensor.Dense, k)
	for i, part := range testAs {
		xAs[i] = part.Dense
	}
	got, err := p.PredictBatch(xAs, ds.TestB.Dense)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, got, hist.TestLogits, "sharded-checkpoint served logits")
}

// TestShardValidation pins the up-front refusals: embedding families, more
// shards than sessions, and an empty shard set all fail before any worker is
// dialed.
func TestShardValidation(t *testing.T) {
	dense := data.Generate(tinySpec("t-shardval", 8, 8, 2, true), 37)
	noDial := func(int) (transport.Conn, error) {
		return nil, errors.New("validation must fail before dialing")
	}
	skAs, _ := shardKeys(t, 2)

	if _, err := (Trainer{Kind: WDL, Hyper: tinyHyper()}).TrainSharded(dense,
		ShardSet{Shards: 1, SKAs: skAs, Dial: noDial}); err == nil || !strings.Contains(err.Error(), "numeric families") {
		t.Fatalf("embedding family: err = %v, want a numeric-families rejection", err)
	}
	if _, err := (Trainer{Kind: LR, Hyper: tinyHyper()}).TrainSharded(dense,
		ShardSet{Shards: 3, SKAs: skAs, Dial: noDial}); err == nil {
		t.Fatal("3 shards over 2 sessions accepted")
	}
	if _, err := (Trainer{Kind: LR, Hyper: tinyHyper()}).TrainSharded(dense, ShardSet{}); err == nil {
		t.Fatal("empty shard set accepted")
	}
}

// TestShardWorkersInstallPools: the setup document's pool option reaches a
// worker's own key. A label-party key freshly generated here, which nothing
// has registered a pool for, has one after a 2-shard run with Pool set: the
// first worker installs it and its sibling, sharing the key in this process,
// keeps it. A second run's workers find that pool and keep it too.
func TestShardWorkersInstallPools(t *testing.T) {
	const k = 2
	ds := data.Generate(tinySpec("t-shard-pool", 12, 12, 2, false), 41)
	h := tinyHyper()
	h.Epochs, h.Pool = 1, 8
	skAs, _ := shardKeys(t, k)
	skB, err := paillier.GenerateKey(paillier.Rand, 512)
	if err != nil {
		t.Fatal(err)
	}
	if paillier.PoolFor(&skB.PublicKey) != nil {
		t.Fatal("a freshly generated key already has a pool")
	}
	t.Cleanup(func() {
		if p := paillier.PoolFor(&skB.PublicKey); p != nil {
			paillier.UnregisterPool(&skB.PublicKey)
			p.Close()
		}
	})
	run := func() *paillier.Pool {
		dial, wait, _ := StartShardWorkers(2, skB, nil)
		if _, err := (Trainer{Kind: LR, Hyper: h}).TrainSharded(ds, ShardSet{Shards: 2, SKAs: skAs, Dial: dial}); err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		return paillier.PoolFor(&skB.PublicKey)
	}
	first := run()
	if first == nil {
		t.Fatal("the shard workers ran with Pool set and left their key without a pool")
	}
	if again := run(); again != first {
		t.Fatal("a later run's workers replaced the pool their key already had")
	}
}

// TestChaosShardKillTyped kills shard 1's control link mid-epoch (FaultConn
// closes it at the root's 5th send — a gradient broadcast) and requires the
// run to fail with exactly ONE typed error: protocol.ErrShardLost, never the
// transport.ErrClosed cascade the teardown provokes in the surviving shard
// and the feature parties.
func TestChaosShardKillTyped(t *testing.T) {
	const k = 2
	ds := data.Generate(tinySpec("t-shardkill", 12, 12, 2, false), 39)
	h := tinyHyper()
	skAs, skB := shardKeys(t, k)
	pair := func(shard, ord int) (transport.Conn, transport.Conn) {
		root, worker := transport.Pair(4096)
		if shard == 1 && ord == 0 {
			return transport.NewFaultConn(root, 9, "chaos-shard-kill", transport.FaultPlan{KillAtMsg: 5}), worker
		}
		return root, worker
	}
	dial, wait, stop := StartShardWorkers(2, skB, pair)
	done := make(chan error, 1)
	go func() {
		_, err := Trainer{Kind: LR, Hyper: h}.TrainSharded(ds, ShardSet{Shards: 2, SKAs: skAs, Dial: dial})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, protocol.ErrShardLost) {
			t.Fatalf("killed-shard run error = %v, want ErrShardLost", err)
		}
		if errors.Is(err, transport.ErrClosed) {
			t.Fatalf("killed-shard run error %v still matches ErrClosed; the cascade leaked", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killed-shard run hung instead of failing typed")
	}
	stop()
	wait() // drain the workers' cascade errors
}

// TestShardMultiProcessSmoke runs the real thing: two blindfl-shard worker
// PROCESSES over loopback TCP, driven by the blindfl-train binary with
// -shards 2 -shard-connect. Everything in-process above is re-checked across
// genuine process and network boundaries.
func TestShardMultiProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"blindfl-shard", "blindfl-train"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "blindfl/cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	var addrs []string
	var workers []*exec.Cmd
	for i := 0; i < 2; i++ {
		cmd := exec.Command(bins["blindfl-shard"], "-timeout", "120s")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("start shard worker %d: %v", i, err)
		}
		workers = append(workers, cmd)
		t.Cleanup(func() { cmd.Process.Kill() })
		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "SHARD_LISTEN ") {
					addrCh <- strings.TrimPrefix(sc.Text(), "SHARD_LISTEN ")
					return
				}
			}
			addrCh <- ""
		}()
		select {
		case a := <-addrCh:
			if a == "" {
				t.Fatalf("shard worker %d exited without announcing an address: %s", i, stderr.String())
			}
			addrs = append(addrs, a)
		case <-time.After(30 * time.Second):
			t.Fatalf("shard worker %d never announced SHARD_LISTEN", i)
		}
	}

	out, err := exec.Command(bins["blindfl-train"],
		"-dataset", "a9a", "-model", "lr", "-train", "96", "-test", "48",
		"-epochs", "1", "-batch", "32", "-parties", "2",
		"-shards", "2", "-shard-connect", strings.Join(addrs, ",")).CombinedOutput()
	if err != nil {
		t.Fatalf("sharded blindfl-train run failed: %v\n%s", err, out)
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("shard worker %d exited with %v", i, err)
		}
	}
}
