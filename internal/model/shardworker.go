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
	"blindfl/internal/engine"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
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
	if su.LayerB != nil && len(su.LayerB) != plan.Sessions {
		return fmt.Errorf("%w: resume setup carries %d layer halves for %d sessions", protocol.ErrShardMismatch, len(su.LayerB), plan.Sessions)
	}
	installPool(su.Hyper.Options, skB)
	fp := hello.Fingerprint
	conns, err := protocol.AcceptSessions(accept, plan, hello.Shard, fp, w)
	if err != nil {
		return err
	}

	h := su.Hyper
	lo, _ := plan.Range(hello.Shard)
	peers := make([]*protocol.Peer, len(conns))
	for j, c := range conns {
		// The RNG coordinate is (seed, shard session offset, local index):
		// rng.Session folds the offset and the local index into the global
		// session index, so stream j of this worker is exactly stream lo+j of
		// the single-process group, for any shard count.
		peers[j] = protocol.NewPeer(protocol.PartyB, c, skB, h.Seed, lo, j)
	}
	if err := protocol.HandshakeAll(peers...); err != nil {
		return err
	}
	g := protocol.NewGroup(peers)
	applyOptions(h.Options, peers...)

	var runErr error
	err = protocol.Catch(fmt.Sprintf("shard %d", hello.Shard), func() {
		runErr = shardWorkerLoop(link, g, &su, plan, hello.Shard)
	})
	if err != nil {
		return err
	}
	return runErr
}

// workerPools serializes installPool across the workers of one process.
var workerPools sync.Mutex

// installPool gives a worker's key the blinding pool its setup document asks
// for. A worker process is the first to see its key, so nobody else installs
// one; in-process siblings share the key, and the first to arrive installs
// the pool the others then find — none replaces another's.
func installPool(o engine.Options, skB *paillier.PrivateKey) {
	workerPools.Lock()
	defer workerPools.Unlock()
	if paillier.PoolFor(&skB.PublicKey) == nil {
		o.SetupKeys(skB)
	}
}

// shardWorkerLoop drives the worker's session slice through the run: the
// label party's closure of Trainer.run with the head's forward/backward
// replaced by the partials/gradient exchange with the root. It opens its
// slice of the numeric source layer the way the unsharded label party opens
// the whole of it (built, or restored from the setup document's halves) and
// iterates the same schedule — batch order, per-epoch re-seeding, checkpoint
// epochs — so the root and every worker stay in lockstep with no scheduling
// traffic. Protocol failures panic protocol-style (the caller runs it under
// Catch); a half that does not restore returns a typed error.
func shardWorkerLoop(link *protocol.ShardLink, g *protocol.Group, su *shardSetup, plan protocol.ShardPlan, shard int) error {
	h := su.Hyper
	lo, hi := plan.Range(shard)
	pl := newPlan(su.Kind, su.Classes, h, sourceLayout{Sparse: su.TrainB.Sparse != nil}, su.InAs[lo:hi], su.InB)
	pl.cfg.GroupParties = plan.Sessions // the W_B pieces and ∇Z/k scale by the run's k, not the slice's
	var subs []core.NumericB
	if su.LayerB != nil {
		var err error
		if subs, _, err = loadSide(pl, su.LayerB[lo:hi], nil, g.Peers, core.LoadMatMulB, core.LoadEmbedMatMulB); err != nil {
			return err
		}
	}
	md := pl.openGroup(g, subs)

	schedule{h: h, rows: su.TrainB.Rows(), start: su.StartEpoch, ckptEvery: su.CkptEvery, ckptFinal: su.CkptFinal}.each(g.SeedEpoch,
		func(idx []int) {
			link.SendParts(md.ForwardParts(numeric(su.TrainB.Batch(idx))))
			md.Backward(link.RecvGrad(len(idx), pl.cfg.Out))
		},
		// A checkpoint epoch settles the slice and ships its halves in
		// shard-local session order (the root re-slots them by plan range).
		func(e int) {
			md.Settle()
			blobs, err := saveGroup(md)
			if err != nil {
				g.Peers[0].Fail("shard %d: layer halves for epoch %d: %w", shard, e, err)
			}
			link.SendLayers(e, blobs)
		})
	md.Settle()

	if su.ServeEval {
		md.ServeStart()
	}
	for _, idx := range data.BatchIndices(su.TestB.Rows(), h.Batch) {
		if p := su.TestB.Batch(idx); su.ServeEval {
			link.SendShare(md.ServeShareSum(p.Dense))
		} else {
			link.SendParts(md.ForwardParts(numeric(p)))
		}
	}
	return nil
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
