package bench

import (
	"fmt"
	"math/rand"
	"net"

	"blindfl/internal/core"
	"blindfl/internal/engine"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Traffic measures the wire footprint of one federated mini-batch over a
// real TCP loopback connection with gob framing: messages and bytes sent by
// Party A, for a dense and a sparse MatMul source layer. Communication
// volume is the second axis (besides computation) on which the sparse
// protocol wins.
func Traffic() *Table {
	t := &Table{
		Title:  "Traffic: Party A bytes per mini-batch (TCP loopback, gob)",
		Header: []string{"layer", "dims", "messages", "MiB", "chunks", "KiB/chunk", "recv ms/chunk"},
	}
	const batch, out = 16, 2

	// Dense 64-dim layer.
	{
		pa, pb, cleanup := tcpPeerPair(71)
		var la *core.MatMulA
		var lb *core.MatMulB
		cfg := core.Config{Out: out, LR: 0.1}
		if err := protocol.RunParties(pa, pb,
			func() { la = core.NewMatMulA(pa, cfg, 32, 32) },
			func() { lb = core.NewMatMulB(pb, cfg, 32, 32) },
		); err != nil {
			panic(err)
		}
		m0, b0 := pa.Conn.Stats()
		rng := rand.New(rand.NewSource(1))
		xA := tensor.RandDense(rng, batch, 32, 1)
		xB := tensor.RandDense(rng, batch, 32, 1)
		g := tensor.RandDense(rng, batch, out, 0.1)
		if err := protocol.RunParties(pa, pb,
			func() { la.Forward(core.DenseFeatures{M: xA}); la.Backward() },
			func() { lb.Forward(core.DenseFeatures{M: xB}); lb.Backward(g) },
		); err != nil {
			panic(err)
		}
		m1, b1 := pa.Conn.Stats()
		t.Add("MatMul dense", "64", fmt.Sprintf("%d", m1-m0), fmt.Sprintf("%.2f", float64(b1-b0)/(1<<20)), "—", "—", "—")
		cleanup()
	}

	// The same dense layer chunk-streamed: the extra messages are the chunk
	// envelopes; the per-chunk byte and receive-latency columns come from the
	// protocol layer's StreamStats accounting.
	{
		pa, pb, cleanup := tcpPeerPair(73)
		var la *core.MatMulA
		var lb *core.MatMulB
		cfg := core.Config{Out: out, LR: 0.1, Options: engine.Options{Stream: true}}
		if err := protocol.RunParties(pa, pb,
			func() { la = core.NewMatMulA(pa, cfg, 32, 32) },
			func() { lb = core.NewMatMulB(pb, cfg, 32, 32) },
		); err != nil {
			panic(err)
		}
		pa.Stream, pb.Stream = protocol.StreamStats{}, protocol.StreamStats{}
		m0, b0 := pa.Conn.Stats()
		rng := rand.New(rand.NewSource(1))
		xA := tensor.RandDense(rng, batch, 32, 1)
		xB := tensor.RandDense(rng, batch, 32, 1)
		g := tensor.RandDense(rng, batch, out, 0.1)
		if err := protocol.RunParties(pa, pb,
			func() { la.Forward(core.DenseFeatures{M: xA}); la.Backward() },
			func() { lb.Forward(core.DenseFeatures{M: xB}); lb.Backward(g) },
		); err != nil {
			panic(err)
		}
		m1, b1 := pa.Conn.Stats()
		s := pa.Stream
		kibPerChunk := "—"
		if s.ChunksSent > 0 {
			kibPerChunk = fmt.Sprintf("%.1f", float64(s.BytesSent)/float64(s.ChunksSent)/1024)
		}
		msPerChunk := "—"
		if s.ChunksRecv > 0 {
			msPerChunk = fmt.Sprintf("%.2f", s.RecvWait.Seconds()*1000/float64(s.ChunksRecv))
		}
		t.Add("MatMul dense (streamed)", "64", fmt.Sprintf("%d", m1-m0), fmt.Sprintf("%.2f", float64(b1-b0)/(1<<20)),
			fmt.Sprintf("%d", s.ChunksSent), kibPerChunk, msPerChunk)
		cleanup()
	}

	// The streamed layer with the label party's decrypt spot-check on: the
	// wire columns are unchanged (the probe is local re-decryption, not a
	// protocol message) and the integrity counters surface in the note.
	{
		pa, pb, cleanup := tcpPeerPair(76)
		var la *core.MatMulA
		var lb *core.MatMulB
		cfg := core.Config{Out: out, LR: 0.1, Options: engine.Options{Stream: true, SpotCheck: true}}
		if err := protocol.RunParties(pa, pb,
			func() { la = core.NewMatMulA(pa, cfg, 32, 32) },
			func() { lb = core.NewMatMulB(pb, cfg, 32, 32) },
		); err != nil {
			panic(err)
		}
		pa.Stream, pb.Stream = protocol.StreamStats{}, protocol.StreamStats{}
		m0, b0 := pa.Conn.Stats()
		rng := rand.New(rand.NewSource(1))
		xA := tensor.RandDense(rng, batch, 32, 1)
		xB := tensor.RandDense(rng, batch, 32, 1)
		g := tensor.RandDense(rng, batch, out, 0.1)
		if err := protocol.RunParties(pa, pb,
			func() { la.Forward(core.DenseFeatures{M: xA}); la.Backward() },
			func() { lb.Forward(core.DenseFeatures{M: xB}); lb.Backward(g) },
		); err != nil {
			panic(err)
		}
		m1, b1 := pa.Conn.Stats()
		s := pb.Stream
		t.Add("MatMul dense (streamed+spotcheck)", "64", fmt.Sprintf("%d", m1-m0),
			fmt.Sprintf("%.2f", float64(b1-b0)/(1<<20)), fmt.Sprintf("%d", s.ChunksRecv), "—", "—")
		t.Note("label-party decrypt spot-checks: %d rows re-verified, %d mismatches — a non-zero mismatch count on a healthy link means corrupted or mis-assembled ciphertext arithmetic", s.SpotChecks, s.SpotMismatches)
		cleanup()
	}

	// The serve-path forward with the AN-coded residue check on: each party
	// re-derives every exact-integer share cell mod a small prime before the
	// share joins the decrypted homomorphic half. Like the spot-check the
	// probe is party-local — the wire columns are unchanged — and the
	// counters surface in the note.
	{
		pa, pb, cleanup := tcpPeerPair(77)
		var la *core.MatMulA
		var lb *core.MatMulB
		cfg := core.Config{Out: out, LR: 0.1, Options: engine.Options{ANCheck: true}}
		if err := protocol.RunParties(pa, pb,
			func() { la = core.NewMatMulA(pa, cfg, 32, 32) },
			func() { lb = core.NewMatMulB(pb, cfg, 32, 32) },
		); err != nil {
			panic(err)
		}
		pa.Stream, pb.Stream = protocol.StreamStats{}, protocol.StreamStats{}
		m0, b0 := pa.Conn.Stats()
		rng := rand.New(rand.NewSource(1))
		xA := tensor.RandDense(rng, batch, 32, 1)
		xB := tensor.RandDense(rng, batch, 32, 1)
		if err := protocol.RunParties(pa, pb,
			func() { la.ServeStart(); la.ServeForward(xA) },
			func() { lb.ServeStart(); lb.ServeForward(xB) },
		); err != nil {
			panic(err)
		}
		m1, b1 := pa.Conn.Stats()
		checks := pa.Stream.ANChecks + pb.Stream.ANChecks
		bad := pa.Stream.ANMismatches + pb.Stream.ANMismatches
		t.Add("MatMul dense (serve+ancheck)", "64", fmt.Sprintf("%d", m1-m0), fmt.Sprintf("%.2f", float64(b1-b0)/(1<<20)), "—", "—", "—")
		t.Note("AN-coded residue checks (both parties, serve path): %d share cells re-verified, %d mismatches — a non-zero mismatch count means corrupt plaintext share arithmetic (the side the decrypt spot-check cannot see)", checks, bad)
		cleanup()
	}

	// The same dense layer with short-exponent blinding pools registered:
	// the pool effectiveness counters — including permanently lost slots,
	// the degraded-pool signal — surface alongside the wire columns.
	{
		pa, pb, cleanup := tcpPeerPair(74)
		var pools []*paillier.Pool
		for _, sk := range []*paillier.PrivateKey{pa.SK, pb.SK} {
			p := paillier.NewPool(&sk.PublicKey, 16, 0, paillier.Rand, paillier.WithShortExp(0))
			paillier.RegisterPool(p)
			pools = append(pools, p)
		}
		var la *core.MatMulA
		var lb *core.MatMulB
		cfg := core.Config{Out: out, LR: 0.1}
		if err := protocol.RunParties(pa, pb,
			func() { la = core.NewMatMulA(pa, cfg, 32, 32) },
			func() { lb = core.NewMatMulB(pb, cfg, 32, 32) },
		); err != nil {
			panic(err)
		}
		m0, b0 := pa.Conn.Stats()
		rng := rand.New(rand.NewSource(1))
		xA := tensor.RandDense(rng, batch, 32, 1)
		xB := tensor.RandDense(rng, batch, 32, 1)
		g := tensor.RandDense(rng, batch, out, 0.1)
		if err := protocol.RunParties(pa, pb,
			func() { la.Forward(core.DenseFeatures{M: xA}); la.Backward() },
			func() { lb.Forward(core.DenseFeatures{M: xB}); lb.Backward(g) },
		); err != nil {
			panic(err)
		}
		m1, b1 := pa.Conn.Stats()
		t.Add("MatMul dense (pooled)", "64", fmt.Sprintf("%d", m1-m0), fmt.Sprintf("%.2f", float64(b1-b0)/(1<<20)), "—", "—", "—")
		var hits, misses, lost int64
		for _, p := range pools {
			s := p.Stats()
			hits += s.Hits
			misses += s.Misses
			lost += s.Lost
		}
		t.Note("blinding pools (both parties): %d hits, %d misses, %d lost slots — a non-zero lost count marks a degraded pool (reader errors or closed workers)", hits, misses, lost)
		for _, sk := range []*paillier.PrivateKey{pa.SK, pb.SK} {
			paillier.UnregisterPool(&sk.PublicKey)
		}
		for _, p := range pools {
			p.Close()
		}
		cleanup()
	}

	// k-party dense group: one row per session, so per-session asymmetries
	// (here an uneven 12/10/10 column split) show up directly. Each row
	// reports the bytes that session's feature party put on its own TCP
	// connection during one group mini-batch.
	{
		const k = 3
		peersA, g, cleanup := tcpPeerGroup(75, k)
		inAs := []int{12, 10, 10}
		inB := 32
		cfg := core.Config{Out: out, LR: 0.1}
		acfg := cfg
		acfg.GroupParties = k
		las := make([]*core.MatMulA, k)
		var lb *core.MultiMatMulB
		if err := protocol.RunGroup(peersA, g,
			func(i int) { las[i] = core.NewMatMulA(peersA[i], acfg, inAs[i], inB) },
			func() { lb = core.NewMultiMatMulB(g, cfg, inAs, inB, false) },
		); err != nil {
			panic(err)
		}
		m0 := make([]int64, k)
		b0 := make([]int64, k)
		for i, p := range peersA {
			m0[i], b0[i] = p.Conn.Stats()
		}
		rng := rand.New(rand.NewSource(1))
		xAs := make([]*tensor.Dense, k)
		for i := range xAs {
			xAs[i] = tensor.RandDense(rng, batch, inAs[i], 1)
		}
		xB := tensor.RandDense(rng, batch, inB, 1)
		grad := tensor.RandDense(rng, batch, out, 0.1)
		if err := protocol.RunGroup(peersA, g,
			func(i int) { las[i].Forward(core.DenseFeatures{M: xAs[i]}); las[i].Backward() },
			func() { lb.Forward(core.DenseFeatures{M: xB}); lb.Backward(grad) },
		); err != nil {
			panic(err)
		}
		for i, p := range peersA {
			m1, b1 := p.Conn.Stats()
			t.Add(fmt.Sprintf("MatMul multi k=%d session %d", k, i), fmt.Sprintf("%d", inAs[i]),
				fmt.Sprintf("%d", m1-m0[i]), fmt.Sprintf("%.2f", float64(b1-b0[i])/(1<<20)), "—", "—", "—")
		}
		cleanup()
	}

	// Sparse 4096-dim layer with 8 nnz/row: despite 64× the dimensionality,
	// the traffic stays in the same ballpark because only touched
	// coordinates move.
	{
		pa, pb, cleanup := tcpPeerPair(72)
		cfg := core.Config{Out: out, LR: 0.1}
		la := core.NewSparseMatMulA(pa, cfg, 2048, 2048)
		lb := core.NewSparseMatMulB(pb, cfg, 2048, 2048)
		m0, b0 := pa.Conn.Stats()
		rng := rand.New(rand.NewSource(2))
		xA := tensor.RandCSR(rng, batch, 2048, 4)
		xB := tensor.RandCSR(rng, batch, 2048, 4)
		g := tensor.RandDense(rng, batch, out, 0.1)
		if err := protocol.RunParties(pa, pb,
			func() { la.Forward(xA); la.Backward() },
			func() { lb.Forward(xB); lb.Backward(g) },
		); err != nil {
			panic(err)
		}
		m1, b1 := pa.Conn.Stats()
		t.Add("MatMul sparse", "4096 (8 nnz/row)", fmt.Sprintf("%d", m1-m0), fmt.Sprintf("%.2f", float64(b1-b0)/(1<<20)), "—", "—", "—")
		cleanup()
	}
	t.Note("dense traffic is dominated by the ⟦X·V⟧ and refresh ciphertexts (∝ dims·out); sparse traffic ∝ touched coordinates")
	t.Note("multi rows: one TCP session per feature party of a k-party group — per-session bytes scale with that party's column count while the batch-sized transfers (⟦∇Z⟧, masked shares) repeat per session")
	t.Note("streamed rows split ciphertext matrices into %d-row chunks: bytes stay ≈ equal (chunk envelopes are small) while encryption, wire and decryption overlap", protocol.DefaultChunkRows)
	return t
}

// tcpPeerGroup wires a k-session group over TCP loopback (one connection per
// feature party) and returns a cleanup func.
func tcpPeerGroup(seed int64, k int) ([]*protocol.Peer, *protocol.Group, func()) {
	peersA := make([]*protocol.Peer, k)
	peersB := make([]*protocol.Peer, k)
	cleanups := make([]func(), k)
	for i := 0; i < k; i++ {
		peersA[i], peersB[i], cleanups[i] = tcpPeerSession(seed, i)
	}
	return peersA, protocol.NewGroup(peersB), func() {
		for _, c := range cleanups {
			c()
		}
	}
}

// tcpPeerPair wires two peers over TCP loopback and returns a cleanup func.
func tcpPeerPair(seed int64) (*protocol.Peer, *protocol.Peer, func()) {
	return tcpPeerSession(seed, 0)
}

// tcpPeerSession is tcpPeerPair for session i of a group, with the peers'
// RNG streams derived per (seed, session, role) exactly as Pipe/GroupPipe
// derive them.
func tcpPeerSession(seed int64, session int) (*protocol.Peer, *protocol.Peer, func()) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			panic(err)
		}
		acc <- transport.NewGobConn(c)
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		panic(err)
	}
	connA := transport.NewGobConn(c)
	connB := <-acc
	l.Close()

	skA, skB := protocol.TestKeys()
	pa := protocol.NewPeer(protocol.PartyA, connA, skA, protocol.SessionRNG(seed, session, protocol.PartyA))
	pb := protocol.NewPeer(protocol.PartyB, connB, skB, protocol.SessionRNG(seed, session, protocol.PartyB))
	done := make(chan error, 1)
	go func() { done <- pa.Handshake() }()
	if err := pb.Handshake(); err != nil {
		panic(err)
	}
	if err := <-done; err != nil {
		panic(err)
	}
	//blindfl:allow teardown bench harness owns both ends; the returned closer is its RunParties
	return pa, pb, func() { connA.Close(); connB.Close() }
}
