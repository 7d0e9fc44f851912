package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
	"time"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/rng"
	"blindfl/internal/transport"
)

// RunShardWorker runs one shard worker to completion: the connect exchange
// on the control conn, the setup-document fingerprint check, the session
// accepts and handshakes, then the worker's half of the deterministic
// schedule — forward partials up, gradient broadcast down, layer blobs at
// checkpoint epochs — over its session slice. accept yields the feature
// parties' session conns (from a transport.Listener, or an in-process
// harness). skB is this worker's own Paillier key: keys never change
// decrypted values, so each worker process minting its own preserves
// bit-exactness. Every conn the worker touches is owned by one WorkerConns
// teardown, so a failing worker releases the root and its feature parties
// instead of stranding them in Recv.
func RunShardWorker(ctl transport.Conn, accept func() (transport.Conn, error), skB *paillier.PrivateKey) error {
	w := &protocol.WorkerConns{Ctl: ctl}
	defer w.Close()
	link, hello, err := protocol.AcceptShard(ctl)
	if err != nil {
		return err
	}
	plan := protocol.ShardPlan{Sessions: hello.Sessions, Shards: hello.Shards}
	blob, err := link.RecvSetup()
	if err != nil {
		return err
	}
	if blob.Kind != "setup" {
		return fmt.Errorf("model: shard setup document has kind %q, want \"setup\"", blob.Kind)
	}
	var su shardSetup
	if err := gob.NewDecoder(bytes.NewReader(blob.Data)).Decode(&su); err != nil {
		return fmt.Errorf("model: decode shard setup: %w", err)
	}
	// Recompute the schedule fingerprint from the document's contents and
	// echo it: the root refuses a disagreeing worker (ShardGroup.Setup), and
	// AckSetup refuses the root symmetrically, both typed.
	if err := link.AckSetup(su.fingerprint(plan), hello.Fingerprint); err != nil {
		return err
	}
	if len(su.InAs) != plan.Sessions {
		return fmt.Errorf("%w: setup names %d sessions, hello %d", protocol.ErrShardMismatch, len(su.InAs), plan.Sessions)
	}
	if su.Resume && len(su.LayerB) != plan.Sessions {
		return fmt.Errorf("%w: resume setup carries %d layer halves for %d sessions", protocol.ErrShardMismatch, len(su.LayerB), plan.Sessions)
	}
	su.Hyper.Options.Apply()
	fp := hello.Fingerprint
	conns, err := protocol.AcceptSessions(accept, plan, hello.Shard, fp, w)
	if err != nil {
		return err
	}

	h := su.Hyper
	lo, _ := plan.Range(hello.Shard)
	peers := make([]*protocol.Peer, len(conns))
	hsErrs := make(chan error, len(conns))
	for j, c := range conns {
		// The RNG coordinate is (seed, shard session offset, local index):
		// rng.Session folds the offset and the local index into the global
		// session index, so stream j of this worker is exactly stream lo+j of
		// the single-process group, for any shard count.
		p := protocol.NewPeer(protocol.PartyB, c, skB, protocol.ShardSessionRNG(h.Seed, lo, j, protocol.PartyB))
		p.SetStreamIdentity(h.Seed, lo+j)
		peers[j] = p
		go func(p *protocol.Peer) { hsErrs <- p.Handshake() }(p)
	}
	var hsErr error
	for range conns {
		if err := <-hsErrs; err != nil && hsErr == nil {
			hsErr = err
		}
	}
	if hsErr != nil {
		return hsErr
	}
	g := protocol.NewGroup(peers)

	var runErr error
	err = protocol.Catch(fmt.Sprintf("shard %d", hello.Shard), func() {
		runErr = shardWorkerLoop(link, g, &su, plan, hello.Shard)
	})
	if err != nil {
		return err
	}
	return runErr
}

// shardWorkerLoop drives the worker's session slice through the full
// deterministic schedule. Protocol failures panic protocol-style (the caller
// runs it under Catch); local failures (layer serialization) return an
// error. The loop mirrors trainLoopB exactly — same batch-order stream, same
// per-epoch re-seeding, same checkpoint-epoch formula — with the head's
// forward/backward replaced by the partials/gradient exchange with the root.
func shardWorkerLoop(link *protocol.ShardLink, g *protocol.Group, su *shardSetup, plan protocol.ShardPlan, shard int) error {
	h := su.Hyper
	lo, hi := plan.Range(shard)
	inAs := su.InAs[lo:hi]
	dense := su.TrainB.Dense != nil
	cfg := coreCfg(su.Kind, su.Classes, h)
	var md *core.MultiMatMulB
	var ms *core.MultiSparseMatMulB
	if su.Resume {
		if !dense {
			return fmt.Errorf("model: resume covers dense numeric source layers only")
		}
		subs := make([]*core.MatMulB, hi-lo)
		loadErrs := make([]error, hi-lo)
		g.ForEach(func(j int, peer *protocol.Peer) {
			sub, err := core.LoadMatMulB(bytes.NewReader(su.LayerB[lo+j]), peer)
			if err != nil {
				loadErrs[j] = err
				return
			}
			subs[j] = sub
		})
		for _, err := range loadErrs {
			if err != nil {
				return err
			}
		}
		md = core.NewMultiMatMulBFrom(g, subs)
		md.ResumeExchange()
	} else if dense {
		md = core.NewMultiMatMulBShard(g, cfg, inAs, su.InB, plan.Sessions)
	} else {
		ms = core.NewMultiSparseMatMulBShard(g, cfg, inAs, su.InB, plan.Sessions)
	}

	rows := su.TrainB.Rows()
	order := rng.New(h.Seed, "batch-order")
	for e := 0; e < su.StartEpoch; e++ {
		data.Shuffle(order, rows)
	}
	for e := su.StartEpoch; e < h.Epochs; e++ {
		g.SeedEpoch(e)
		perm := data.Shuffle(order, rows)
		for _, idx := range batchesOf(perm, h.Batch) {
			p := su.TrainB.Batch(idx)
			if md != nil {
				link.SendParts(md.ForwardParts(core.DenseFeatures{M: p.Dense}))
				md.BackwardTotal(link.RecvGrad(), plan.Sessions)
			} else {
				link.SendParts(ms.ForwardParts(p.Sparse))
				ms.BackwardTotal(link.RecvGrad(), plan.Sessions)
			}
		}
		if su.RunCkpt && ckptDue(e, su.CheckpointEvery, h.Epochs) {
			blobs, err := saveShardLayers(md)
			if err != nil {
				return err
			}
			link.SendLayers(e, blobs)
		}
	}

	if su.ServeEval && md != nil {
		md.ServeStart()
		for _, idx := range data.BatchIndices(su.TestB.Rows(), h.Batch) {
			link.SendShare(md.ServeShareSum(su.TestB.Batch(idx).Dense))
		}
	} else {
		for _, idx := range data.BatchIndices(su.TestB.Rows(), h.Batch) {
			p := su.TestB.Batch(idx)
			if md != nil {
				link.SendParts(md.ForwardParts(core.DenseFeatures{M: p.Dense}))
			} else {
				link.SendParts(ms.ForwardParts(p.Sparse))
			}
		}
	}
	if su.ServeCapture {
		blobs, err := saveShardLayers(md)
		if err != nil {
			return err
		}
		link.SendLayers(-1, blobs)
	}
	return nil
}

// saveShardLayers serializes the worker's per-session B halves, in
// shard-local session order (the root re-slots them by plan range).
func saveShardLayers(md *core.MultiMatMulB) ([][]byte, error) {
	if md == nil {
		return nil, fmt.Errorf("model: checkpoint covers dense numeric source layers only")
	}
	out := make([][]byte, md.K())
	for j := range out {
		var buf bytes.Buffer
		if err := md.Sub(j).Save(&buf); err != nil {
			return nil, err
		}
		out[j] = buf.Bytes()
	}
	return out, nil
}

// ListenAndServeShard runs one shard worker over TCP: listen on addr,
// announce the bound address as a "SHARD_LISTEN host:port" line (how a
// spawning root finds a ":0"-bound worker), take the first conn as the
// control link and every later one as a session conn. deadline > 0 wraps
// every conn in a DeadlineConn with that liveness bound (the dialing root
// must wrap with the same setting — heartbeats are filtered by the receiving
// end, so both ends wrap or neither).
func ListenAndServeShard(addr string, announce io.Writer, skB *paillier.PrivateKey, deadline time.Duration) error {
	ln, err := transport.NewListener(addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if announce != nil {
		fmt.Fprintf(announce, "SHARD_LISTEN %s\n", ln.Addr())
	}
	wrap := func(c transport.Conn) transport.Conn {
		if deadline <= 0 {
			return c
		}
		return transport.NewDeadlineConn(c, deadline, deadline, deadline/3)
	}
	ctl, err := ln.Accept()
	if err != nil {
		return err
	}
	return RunShardWorker(wrap(ctl), func() (transport.Conn, error) {
		c, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}, skB)
}

// StartShardWorkers starts an in-process worker fleet (one goroutine per
// shard) and returns the dialer to hand a ShardSet, a wait that collects the
// workers' exit errors, and a stop that releases workers still waiting for
// conns (call it on root-side failure paths so wait cannot hang). pair, when
// non-nil, builds each root/worker conn pair — ordinal 0 is the shard's
// control link, later ordinals its session conns in dial order — which is
// where tests interpose FaultConns and benchmarks interpose SimPairs; nil
// means plain buffered in-process pairs.
func StartShardWorkers(shards int, skB *paillier.PrivateKey, pair func(shard, ordinal int) (root, worker transport.Conn)) (dial func(shard int) (transport.Conn, error), wait func() error, stop func()) {
	if pair == nil {
		pair = func(int, int) (transport.Conn, transport.Conn) { return transport.Pair(4096) }
	}
	chans := make([]chan transport.Conn, shards)
	errs := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ch := make(chan transport.Conn, 64)
		chans[s] = ch
		go func(ch chan transport.Conn) {
			ctl, ok := <-ch
			if !ok {
				errs <- fmt.Errorf("model: shard harness stopped before the control conn arrived")
				return
			}
			errs <- RunShardWorker(ctl, func() (transport.Conn, error) {
				c, ok := <-ch
				if !ok {
					return nil, fmt.Errorf("model: shard harness stopped")
				}
				return c, nil
			}, skB)
		}(ch)
	}
	var mu sync.Mutex
	counts := make([]int, shards)
	stopped := false
	dial = func(s int) (transport.Conn, error) {
		mu.Lock()
		if stopped {
			mu.Unlock()
			return nil, fmt.Errorf("model: shard harness stopped")
		}
		ord := counts[s]
		counts[s]++
		mu.Unlock()
		root, worker := pair(s, ord)
		chans[s] <- worker
		return root, nil
	}
	wait = func() error {
		var first error
		for s := 0; s < shards; s++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	stop = func() {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return
		}
		stopped = true
		for _, ch := range chans {
			close(ch)
		}
	}
	return dial, wait, stop
}
