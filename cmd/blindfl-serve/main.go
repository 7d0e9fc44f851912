// Command blindfl-serve runs the online encrypted-inference service over a
// trained vertical model: it trains (or restores) a serveable model, starts
// the label party's request batcher over persistent serve sessions, and
// drives it with the closed-loop load generator, reporting end-to-end
// latency percentiles, throughput, shedding and integrity counters.
//
// Usage:
//
//	blindfl-serve -dataset higgs -model lr -requests 512 -spotcheck
//	blindfl-serve -dataset higgs -model mlp -parties 3 -pool 256 -minpool 8
//	blindfl-serve -dataset higgs -train 96 -test 48 -requests 64 -checkpoint /tmp/m.ck
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/engine"
	"blindfl/internal/hetensor"
	"blindfl/internal/model"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/serve"
	"blindfl/internal/tensor"
)

func main() {
	dataset := flag.String("dataset", "higgs", "dataset spec name (see internal/data.Specs; must be dense, e.g. higgs or fmnist)")
	kindStr := flag.String("model", "lr", "model family: lr|mlr|mlp (the serveable families)")
	epochs := flag.Int("epochs", 2, "training epochs before serving")
	batch := flag.Int("batch", 128, "training mini-batch size")
	lr := flag.Float64("lr", 0.05, "learning rate")
	train := flag.Int("train", 0, "override training instances (0 = spec default)")
	test := flag.Int("test", 0, "override test instances")
	seed := flag.Int64("seed", 1, "data/model seed")
	parties := flag.Int("parties", 1, "feature parties; >1 serves over a k-session protocol.Group")
	ckPath := flag.String("checkpoint", "", "serve checkpoint path: reused when it exists, written after training otherwise")
	lanes := flag.Int("lanes", 0, "serve batch width (0 = ciphertext packing lane width)")
	maxBatch := flag.Int("maxbatch", 0, "max requests per protocol batch (0 = batch width)")
	flush := flag.Duration("flush", 2*time.Millisecond, "max wait for a lane group to fill")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x max batch)")
	minPool := flag.Int("minpool", 0, "shed requests while the label party's blinding pool is below this depth (needs -pool)")
	workers := flag.Int("workers", 0, "closed-loop load-generator clients (0 = 2x max batch)")
	requests := flag.Int("requests", 256, "total requests the load generator fires")
	setupTimeout := flag.Duration("setup-timeout", 0, "bound on each serve-session setup attempt (0 = none); a hung peer fails the attempt with a typed timeout and the next attempt retries on fresh sessions")
	var eng engine.Options
	eng.RegisterFlags(flag.CommandLine)
	flag.Parse()

	kind, err := model.ParseKind(*kindStr)
	if err != nil {
		fatal(err)
	}
	spec, ok := data.Specs[*dataset]
	if !ok {
		fatalf("unknown dataset %q", *dataset)
	}
	if err := eng.Validate(); err != nil {
		fatal(err)
	}
	if *minPool > 0 && eng.Pool <= 0 {
		fatalf("-minpool keys backpressure on the blinding pool; it needs -pool")
	}
	if *train > 0 {
		spec.Train = *train
	}
	if *test > 0 {
		spec.Test = *test
	}
	if *parties < 1 {
		fatalf("-parties must be at least 1")
	}

	fmt.Printf("generating %s (%d train / %d test)...\n", spec.Name, spec.Train, spec.Test)
	ds := data.Generate(spec, *seed)
	if !model.Serveable(kind, ds) {
		fatalf("model %s on dataset %s is not serveable (dense numeric families only)", kind, *dataset)
	}

	h := model.DefaultHyper()
	h.Epochs = *epochs
	h.Batch = *batch
	h.LR = *lr
	h.Seed = *seed
	h.Options = eng

	skA, skB := protocol.TestKeys()
	eng.SetupKeys(skA, skB)
	eng.Apply()
	skAs := make([]*paillier.PrivateKey, *parties)
	for i := range skAs {
		skAs[i] = skA
	}

	ck := loadOrTrain(kind, ds, h, skAs, skB, *ckPath, *seed)

	// Serving runs on fresh sessions: the checkpoint restore plus the
	// serve-session weight exchange is the whole cold start, and each
	// attempt runs under the -setup-timeout deadline — a hung peer turns
	// into a typed transport.ErrTimeout instead of a stuck service.
	// Transient session failures during the exchange (closed, corrupted,
	// timed out) retry on fresh sessions with backoff; checkpoint errors
	// fail immediately.
	t0 := time.Now()
	var liveAs []*protocol.Peer
	var liveG *protocol.Group
	p, err := model.RetryPredictor(3, 50*time.Millisecond, func(attempt int) (*model.Predictor, error) {
		as, g, err := protocol.GroupPipe(skAs, skB, *seed+1+int64(attempt))
		if err != nil {
			return nil, err
		}
		// A checkpoint file carries the options it was trained under; this
		// run's flags go on top of them.
		for i := range as {
			as[i].ApplyOptions(eng)
			g.Peers[i].ApplyOptions(eng)
		}
		var pred *model.Predictor
		err = protocol.Within(*setupTimeout, func() {
			for i := range as {
				//blindfl:allow teardown deadline expiry: closing the sessions unblocks the hung setup
				as[i].Conn.Close()
			}
			g.Close()
		}, func() error {
			var err error
			pred, err = model.NewPredictor(bytes.NewReader(ck), model.PartySet{As: as, B: g})
			return err
		})
		if err != nil {
			return nil, err
		}
		liveAs, liveG = as, g
		return pred, nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serve session up in %v (%d feature parties, %d packing lanes)\n",
		time.Since(t0).Round(time.Millisecond), p.K(), p.Lanes())

	s := serve.NewServer(p, serve.Config{
		Lanes: *lanes, MaxBatch: *maxBatch, FlushInterval: *flush,
		MaxQueue: *queue, MinPool: *minPool, SpotCheck: eng.SpotCheck,
	})
	defer s.Close()

	testAs := data.SplitCols(ds.TestA, *parties)
	xAs := make([]*tensor.Dense, *parties)
	for i, part := range testAs {
		xAs[i] = part.Dense
	}
	rows := make([]int, ds.TestB.Dense.Rows)
	for i := range rows {
		rows[i] = i
	}
	w := *workers
	if w <= 0 {
		if w = 2 * *maxBatch; w <= 0 {
			w = 2 * p.Lanes()
		}
	}
	fmt.Printf("firing %d requests from %d closed-loop clients...\n", *requests, w)
	res := serve.RunLoad(s, serve.RandomRequests(xAs, ds.TestB.Dense, rows), w, *requests)

	fmt.Printf("served %d/%d (shed %d, failed %d) in %v — %.1f req/s\n",
		res.OK, res.Sent, res.Shed, res.Failed, res.Duration.Round(time.Millisecond), res.Throughput)
	fmt.Printf("latency p50 %v | p95 %v | p99 %v\n",
		res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond), res.P99.Round(time.Microsecond))
	st := s.Stats()
	fmt.Printf("batches %d (%.2f requests per protocol batch)\n", st.Batches, avg(st.Served, st.Batches))
	if eng.SpotCheck {
		fmt.Printf("integrity: %d spot-checks, %d mismatches\n", st.SpotChecks, st.Mismatches)
	}
	if eng.ANCheck {
		var anChecks, anBad int64
		for _, peer := range liveAs {
			anChecks += peer.Stream.ANChecks
			anBad += peer.Stream.ANMismatches
		}
		for _, peer := range liveG.Peers {
			anChecks += peer.Stream.ANChecks
			anBad += peer.Stream.ANMismatches
		}
		fmt.Printf("integrity: %d AN-coded residue checks, %d mismatches\n", anChecks, anBad)
	}
	if eng.Pool > 0 {
		ps := paillier.PoolFor(&skB.PublicKey).Stats()
		fmt.Printf("label-party pool: %d hits / %d misses, %d buffered\n", ps.Hits, ps.Misses, ps.Available)
	}
	if eng.TableCacheMB > 0 {
		cs := hetensor.TableCacheStatsNow()
		fmt.Printf("table cache: %d hits / %d misses, %d entries holding %.1f MiB\n",
			cs.Hits, cs.Misses, cs.Entries, float64(cs.Bytes)/(1<<20))
	}

	if res.OK == 0 {
		fatalf("no request served")
	}
	if resp := s.Predict(serve.RandomRequests(xAs, ds.TestB.Dense, rows)(0)); resp.Err != nil {
		fatal(resp.Err)
	} else {
		for _, v := range resp.Logits.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fatalf("non-finite logit %v in served response", v)
			}
		}
	}
	if st.Mismatches > 0 {
		fatalf("%d integrity mismatches", st.Mismatches)
	}
}

// loadOrTrain returns the serve checkpoint bytes: read from ckPath when the
// file exists, trained (and written to ckPath when set) otherwise.
func loadOrTrain(kind model.Kind, ds *data.Dataset, h model.Hyper,
	skAs []*paillier.PrivateKey, skB *paillier.PrivateKey, ckPath string, seed int64) []byte {
	if ckPath != "" {
		if b, err := os.ReadFile(ckPath); err == nil {
			fmt.Printf("restoring checkpoint %s (%d bytes)\n", ckPath, len(b))
			return b
		}
	}
	as, g, err := protocol.GroupPipe(skAs, skB, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("training %s (%d feature parties + label party in-process)...\n", kind, len(skAs))
	var buf bytes.Buffer
	hist, err := model.Trainer{Kind: kind, Hyper: h, Checkpoint: &buf}.Train(ds, model.PartySet{As: as, B: g})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained: test %s %.4f; checkpoint %d bytes\n", hist.MetricName, hist.TestMetric, buf.Len())
	if ckPath != "" {
		// Published atomically: a crash mid-write must not leave a truncated
		// file for the next start to reuse.
		if err := model.WriteFileAtomic(ckPath, buf.Bytes()); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", ckPath)
	}
	return buf.Bytes()
}

func avg(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
