// Command blindfl-train trains one model on one dataset spec in all three
// flavours — federated BlindFL, NonFed-collocated, and NonFed-PartyB — and
// reports the loss curves and test metrics side by side.
//
// Usage:
//
//	blindfl-train -dataset w8a -model lr -epochs 3
//	blindfl-train -dataset w8a -model lr -parties 3
//	blindfl-train -dataset avazu-app -model wdl -train 600 -quick
//	blindfl-train -dataset higgs -model lr -checkpoint-dir /tmp/ck
//	blindfl-train -dataset higgs -model lr -checkpoint-dir /tmp/ck -resume
//	blindfl-train -dataset a9a -model lr -parties 4 -shards 2
//	blindfl-train -dataset a9a -model lr -parties 4 -shards 2 -shard-connect host1:9000,host2:9000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"blindfl/internal/bench"
	"blindfl/internal/data"
	"blindfl/internal/engine"
	"blindfl/internal/hetensor"
	"blindfl/internal/model"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/transport"
)

func main() {
	dataset := flag.String("dataset", "a9a", "dataset spec name (see internal/data.Specs)")
	kindStr := flag.String("model", "lr", "model family: lr|mlr|mlp|wdl|dlrm")
	epochs := flag.Int("epochs", 3, "training epochs")
	batch := flag.Int("batch", 128, "mini-batch size")
	lr := flag.Float64("lr", 0.05, "learning rate")
	train := flag.Int("train", 0, "override training instances (0 = spec default)")
	test := flag.Int("test", 0, "override test instances")
	seed := flag.Int64("seed", 1, "data/model seed")
	parties := flag.Int("parties", 1, "feature parties; >1 trains the numeric families over a k-session protocol.Group (Algorithm 3)")
	ckDir := flag.String("checkpoint-dir", "", "directory for durable mid-run training checkpoints (crash recovery; serveable families only)")
	ckEvery := flag.Int("checkpoint-every", 1, "epochs between mid-run checkpoints (needs -checkpoint-dir)")
	resume := flag.Bool("resume", false, "resume the newest usable checkpoint in -checkpoint-dir instead of starting fresh")
	shards := flag.Int("shards", 1, "shard the label party across this many worker processes (needs -parties >= -shards); workers are spawned from this binary unless -shard-connect names them")
	shardConnect := flag.String("shard-connect", "", "comma-separated addresses of externally started blindfl-shard workers, one per shard (implies sharded mode)")
	shardDeadline := flag.Duration("shard-deadline", 0, "liveness bound on every shard-link conn (0 = none); workers must run with the same setting")
	shardWorkerMode := flag.Bool("shard-worker", false, "run as a shard worker instead of a training root (internal: the self-spawn target of -shards)")
	shardListen := flag.String("shard-listen", "127.0.0.1:0", "listen address in -shard-worker mode (announced as a SHARD_LISTEN line on stdout)")
	var eng engine.Options
	eng.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *shardWorkerMode {
		_, skB := protocol.TestKeys()
		if err := model.ListenAndServeShard(*shardListen, os.Stdout, skB, *shardDeadline); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	kind, err := model.ParseKind(*kindStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec, ok := data.Specs[*dataset]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	if err := eng.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if kind.UsesEmbedding() && spec.CatFields == 0 {
		fmt.Fprintf(os.Stderr, "model %s needs categorical fields; dataset %s has none\n", kind, *dataset)
		os.Exit(2)
	}
	if *train > 0 {
		spec.Train = *train
	}
	if *test > 0 {
		spec.Test = *test
	}

	fmt.Printf("generating %s (%d train / %d test, %d features, %.2f%% sparse)...\n",
		spec.Name, spec.Train, spec.Test, spec.Feats, spec.Sparsity()*100)
	ds := data.Generate(spec, *seed)

	h := model.DefaultHyper()
	h.Epochs = *epochs
	h.Batch = *batch
	h.LR = *lr
	h.Seed = *seed
	h.Options = eng

	if *parties < 1 {
		fmt.Fprintln(os.Stderr, "-parties must be at least 1")
		os.Exit(2)
	}
	if *resume && *ckDir == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -checkpoint-dir")
		os.Exit(2)
	}
	// One key pair per session: the label party reuses its key across
	// sessions, while every feature party is its own trust domain. The k
	// in-process feature parties share the cached test key (keygen is a
	// per-deployment cost, not a per-run cost).
	skA, skB := protocol.TestKeys()
	eng.SetupKeys(skA, skB)

	if *shardConnect != "" && *shards == 1 {
		*shards = len(strings.Split(*shardConnect, ","))
	}
	if *shards > *parties {
		fmt.Fprintf(os.Stderr, "-shards %d needs at least as many -parties (have %d)\n", *shards, *parties)
		os.Exit(2)
	}

	tr := model.Trainer{Kind: kind, Hyper: h, CheckpointDir: *ckDir, CheckpointEvery: *ckEvery}
	var fed *model.History
	if *shards > 1 {
		fmt.Printf("training federated BlindFL model (%d feature parties, label party sharded across %d workers)...\n", *parties, *shards)
		fed, err = runSharded(tr, *resume, ds, skA, *parties, *shards, *shardConnect, *shardDeadline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		// A pair is a one-session group: GroupPipe's session 0 draws Pipe's
		// streams, so -parties 1 is the two-party run.
		fmt.Printf("training federated BlindFL model (%d feature parties + label party in-process)...\n", *parties)
		skAs := make([]*paillier.PrivateKey, *parties)
		for i := range skAs {
			skAs[i] = skA
		}
		as, g, err := protocol.GroupPipe(skAs, skB, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fed, err = trainOrResume(tr, *resume, ds, model.PartySet{As: as, B: g})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if eng.TableCacheMB > 0 {
		cs := hetensor.TableCacheStatsNow()
		fmt.Printf("table cache: %d hits / %d misses, %d entries holding %.1f MiB of %d MiB budget, %d evicted\n",
			cs.Hits, cs.Misses, cs.Entries, float64(cs.Bytes)/(1<<20), eng.TableCacheMB, cs.Evicted)
	}
	fmt.Println("training NonFed-collocated baseline...")
	co := model.TrainCollocated(kind, ds, h)
	fmt.Println("training NonFed-PartyB baseline...")
	onlyB := model.TrainPartyB(kind, ds, h)

	xs, fedLoss := bench.Downsample(fed.Losses, 12)
	_, coLoss := bench.Downsample(co.Losses, 12)
	_, pbLoss := bench.Downsample(onlyB.Losses, 12)
	t := bench.SeriesTable(
		fmt.Sprintf("%s / %s: training loss", spec.Name, kind), "iteration", xs,
		[]bench.Series{
			{Name: "BlindFL", Values: fedLoss},
			{Name: "NonFed-collocated", Values: coLoss},
			{Name: "NonFed-PartyB", Values: pbLoss},
		})
	t.Note("test %s: BlindFL %.4f | NonFed-collocated %.4f | NonFed-PartyB %.4f",
		fed.MetricName, fed.TestMetric, co.TestMetric, onlyB.TestMetric)
	t.Print(os.Stdout)
}

// trainOrResume starts a fresh run, or — with -resume — restores the newest
// usable mid-run checkpoint and trains the remaining epochs bit-exactly.
func trainOrResume(tr model.Trainer, resume bool, ds *data.Dataset, ps model.PartySet) (*model.History, error) {
	if resume {
		fmt.Printf("resuming from %s...\n", tr.CheckpointDir)
		return tr.Resume(ds, ps)
	}
	return tr.Train(ds, ps)
}

// runSharded trains (or resumes) with the label party sharded across worker
// processes over loopback TCP: externally started blindfl-shard workers when
// -shard-connect names them, otherwise workers self-spawned from this binary
// in -shard-worker mode. The run is bit-identical to the single-process one.
func runSharded(tr model.Trainer, resume bool, ds *data.Dataset, skA *paillier.PrivateKey, parties, shards int, connect string, deadline time.Duration) (*model.History, error) {
	addrs, cleanup, err := shardWorkers(shards, connect, deadline)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	skAs := make([]*paillier.PrivateKey, parties)
	for i := range skAs {
		skAs[i] = skA
	}
	ss := model.ShardSet{Shards: shards, SKAs: skAs, Dial: func(s int) (transport.Conn, error) {
		c, err := transport.Dial(addrs[s])
		if err != nil {
			return nil, err
		}
		if deadline > 0 {
			// Both ends must wrap: heartbeats are filtered by the receiver.
			return transport.NewDeadlineConn(c, deadline, deadline, deadline/3), nil
		}
		return c, nil
	}}
	if resume {
		fmt.Printf("resuming from %s...\n", tr.CheckpointDir)
		return tr.ResumeSharded(ds, ss)
	}
	return tr.TrainSharded(ds, ss)
}

// shardWorkers resolves one worker address per shard: the -shard-connect
// list verbatim, or workers re-execed from this binary on loopback, each
// announcing its ":0"-bound port with a SHARD_LISTEN line. cleanup reaps the
// spawned processes (workers exit on their own after a run; kill covers the
// failure paths).
func shardWorkers(shards int, connect string, deadline time.Duration) ([]string, func(), error) {
	if connect != "" {
		addrs := strings.Split(connect, ",")
		if len(addrs) != shards {
			return nil, nil, fmt.Errorf("-shard-connect names %d workers for %d shards", len(addrs), shards)
		}
		return addrs, func() {}, nil
	}
	var procs []*exec.Cmd
	cleanup := func() {
		for _, c := range procs {
			c.Process.Kill()
			c.Wait()
		}
	}
	addrs := make([]string, 0, shards)
	for s := 0; s < shards; s++ {
		cmd := exec.Command(os.Args[0], "-shard-worker", "-shard-listen", "127.0.0.1:0",
			"-shard-deadline", deadline.String())
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("spawning shard worker %d: %w", s, err)
		}
		procs = append(procs, cmd)
		sc := bufio.NewScanner(out)
		addr := ""
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "SHARD_LISTEN "); ok {
				addr = strings.TrimSpace(a)
				break
			}
		}
		if addr == "" {
			cleanup()
			return nil, nil, fmt.Errorf("shard worker %d exited before announcing its address", s)
		}
		addrs = append(addrs, addr)
	}
	return addrs, cleanup, nil
}
