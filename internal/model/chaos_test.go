package model

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Chaos suite: every fault class the deterministic injector produces —
// bit-flip, drop, duplicate, reorder, delay, mid-run kill — driven through
// end-to-end federated training. The run-integrity contract under test is
// binary: a run either recovers bit-exactly (the fault was absorbed by the
// chunk NACK/resend protocol or was a pure timing fault) or fails loudly
// with a typed error (transport.ErrCorrupt, transport.ErrClosed,
// protocol.ErrSessionLost). A silently wrong result is the one outcome that
// must never happen.

// chaosHyper is a tiny streamed LR configuration: streaming on with small
// chunks so every batch crosses the wire as multiple checksummed chunks the
// injector can target.
func chaosHyper() Hyper {
	h := tinyHyper()
	h.Epochs = 1
	h.Stream = true
	h.ChunkRows = 3
	return h
}

// fedPipeFault builds a two-party pipe whose Party-A endpoint sends through
// a FaultConn running plan, so every A→B chunk is exposed to the schedule.
func fedPipeFault(t *testing.T, seed int64, label string, plan transport.FaultPlan) (*protocol.Peer, *protocol.Peer, *transport.FaultConn) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	ca, cb := transport.Pair(4096)
	fc := transport.NewFaultConn(ca, seed, label, plan)
	pa, pb, err := protocol.PipeOn(fc, cb, skA, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb, fc
}

// faultGroupPipe is GroupPipe — same streams, same stream identities — with
// session faultSession's Party-A endpoint wrapped in a FaultConn running plan.
func faultGroupPipe(t *testing.T, k int, seed int64, faultSession int, plan transport.FaultPlan) ([]*protocol.Peer, *protocol.Group, *transport.FaultConn) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	as := make([]*protocol.Peer, k)
	bs := make([]*protocol.Peer, k)
	var fc *transport.FaultConn
	errs := make(chan error, 2*k)
	for i := 0; i < k; i++ {
		ca, cb := transport.Pair(4096)
		var connA transport.Conn = ca
		if i == faultSession {
			fc = transport.NewFaultConn(ca, seed, "chaos-group", plan)
			connA = fc
		}
		a := protocol.NewPeer(protocol.PartyA, connA, skA, protocol.SessionRNG(seed, i, protocol.PartyA))
		b := protocol.NewPeer(protocol.PartyB, cb, skB, protocol.SessionRNG(seed, i, protocol.PartyB))
		a.SetStreamIdentity(seed, i)
		b.SetStreamIdentity(seed, i)
		as[i], bs[i] = a, b
		go func() { errs <- a.Handshake() }()
		go func() { errs <- b.Handshake() }()
	}
	for i := 0; i < 2*k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return as, protocol.NewGroup(bs), fc
}

func totalFaults(s transport.FaultStats) int64 {
	return s.Flips + s.Drops + s.Dups + s.Reorders
}

// TestChaosChunkFaultsRecoverBitExact runs each input once fault-free and once
// per fault class: a streamed and a whole-span dense LR, a sparse LR (the
// SparseMatMul layer's on-demand rows), and one served request on a restored
// Predictor (the serve path's weight exchange and masked products). Every
// ciphertext matrix of every one of them crosses the wire as checksummed
// chunks, so chunk faults within the injector's budget are absorbed by the
// NACK/resend protocol, and delays only stretch time: every faulted result
// must be bit-identical to the clean one — recovery that "mostly" works
// would show up here as a divergence.
func TestChaosChunkFaultsRecoverBitExact(t *testing.T) {
	train := func(ds *data.Dataset, h Hyper) func(*testing.T, *protocol.Peer, *protocol.Peer) []float64 {
		return func(t *testing.T, pa, pb *protocol.Peer) []float64 {
			hist, err := Trainer{Kind: LR, Hyper: h}.Train(ds, Pair(pa, pb))
			if err != nil {
				t.Fatalf("training failed: %v", err)
			}
			return append(append([]float64{hist.TestMetric}, hist.Losses...), hist.TestLogits.Data...)
		}
	}
	dense := data.Generate(tinySpec("t-chaos-rec", 12, 12, 2, false), 3)
	streamed := chaosHyper()
	whole := chaosHyper()
	whole.Stream = false

	var ck bytes.Buffer
	pa, pb := fedPipe(t, 599)
	if _, err := (Trainer{Kind: LR, Hyper: whole, Checkpoint: &ck}).Train(dense, Pair(pa, pb)); err != nil {
		t.Fatal(err)
	}
	serve := func(t *testing.T, pa, pb *protocol.Peer) []float64 {
		p, err := NewPredictor(bytes.NewReader(ck.Bytes()), Pair(pa, pb))
		if err != nil {
			t.Fatalf("restoring the predictor failed: %v", err)
		}
		logits, err := p.PredictBatch([]*tensor.Dense{dense.TestA.Dense.RowSlice(0, 4)}, dense.TestB.Dense.RowSlice(0, 4))
		if err != nil {
			t.Fatalf("PredictBatch failed: %v", err)
		}
		return logits.Data
	}

	inputs := []struct {
		name string
		// prob is the per-chunk fault probability — a whole-span input ships
		// far fewer chunks for the schedule to land on — and more the number
		// of faults beyond the first: on a one-chunk stream the resend is the
		// next chunk sent, so only a budget of one keeps it clean.
		prob float64
		more int64
		run  func(*testing.T, *protocol.Peer, *protocol.Peer) []float64
	}{
		{"dense-streamed", 0.3, 1, train(dense, streamed)},
		{"dense-whole", 0.6, 0, train(dense, whole)},
		{"sparse", 0.3, 0, train(data.Generate(tinySpec("t-chaos-sparse", 60, 6, 2, false), 3), streamed)},
		{"serve", 1, 0, serve},
	}
	classes := []struct {
		name string
		plan func(p float64, more int64) transport.FaultPlan
		// hit reports whether the schedule actually fired.
		hit func(transport.FaultStats) bool
	}{
		{"bitflip", func(p float64, more int64) transport.FaultPlan {
			return transport.FaultPlan{FlipProb: p, MaxFaults: 1 + more}
		}, func(s transport.FaultStats) bool { return s.Flips > 0 }},
		{"drop", func(p float64, more int64) transport.FaultPlan {
			return transport.FaultPlan{DropProb: p, MaxFaults: 1 + more}
		}, func(s transport.FaultStats) bool { return s.Drops > 0 }},
		{"dup", func(p float64, more int64) transport.FaultPlan {
			return transport.FaultPlan{DupProb: p, MaxFaults: 1 + more}
		}, func(s transport.FaultStats) bool { return s.Dups > 0 }},
		{"reorder", func(p float64, more int64) transport.FaultPlan {
			return transport.FaultPlan{ReorderProb: p, MaxFaults: 1 + more}
		}, func(s transport.FaultStats) bool { return s.Reorders > 0 }},
		{"delay", func(p float64, _ int64) transport.FaultPlan {
			return transport.FaultPlan{DelayProb: 2 * p / 3, Delay: time.Millisecond}
		}, func(s transport.FaultStats) bool { return s.Delays > 0 }},
		{"mixed", func(p float64, more int64) transport.FaultPlan {
			p = 2 * p / 3
			return transport.FaultPlan{FlipProb: p, DropProb: p, DupProb: p, ReorderProb: p, MaxFaults: 1 + 2*more}
		}, func(s transport.FaultStats) bool { return totalFaults(s) > 0 }},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			pa, pb := fedPipe(t, 600)
			clean := in.run(t, pa, pb)
			for _, tc := range classes {
				t.Run(tc.name, func(t *testing.T) {
					pa, pb, fc := fedPipeFault(t, 600, "chaos-"+tc.name, tc.plan(in.prob, in.more))
					got := in.run(t, pa, pb)
					if !tc.hit(fc.Injected()) {
						t.Fatalf("fault schedule never fired: %+v", fc.Injected())
					}
					if len(got) != len(clean) {
						t.Fatalf("result sizes differ: %d vs %d", len(got), len(clean))
					}
					for i := range got {
						if got[i] != clean[i] {
							t.Fatalf("value %d diverges after recovery: %v vs clean %v", i, got[i], clean[i])
						}
					}
				})
			}
		})
	}
}

// TestChaosPersistentCorruptionFailsTyped removes the fault budget so the
// retransmission round is corrupted too: the run must abort with the typed
// integrity error, never return a model trained on flipped ciphertexts.
func TestChaosPersistentCorruptionFailsTyped(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-corrupt", 12, 12, 2, false), 3)
	pa, pb, _ := fedPipeFault(t, 601, "chaos-persistent", transport.FaultPlan{FlipProb: 1})
	_, err := trainOn(LR, ds, chaosHyper(), Pair(pa, pb))
	if err == nil {
		t.Fatal("training returned a model over persistently corrupted chunks")
	}
	if !errors.Is(err, transport.ErrCorrupt) {
		t.Fatalf("err = %v, want transport.ErrCorrupt", err)
	}
}

// TestChaosMidRunKillFailsTyped kills the two-party connection mid-run: with
// a single session there is nothing to continue on, so the run must surface
// the connection loss as a typed failure on both parties instead of hanging.
func TestChaosMidRunKillFailsTyped(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-kill2p", 12, 12, 2, false), 3)
	pa, pb, _ := fedPipeFault(t, 602, "chaos-kill", transport.FaultPlan{KillAtMsg: 20})
	done := make(chan error, 1)
	go func() {
		_, err := trainOn(LR, ds, chaosHyper(), Pair(pa, pb))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("training completed over a killed connection")
		}
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("err = %v, want transport.ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("two-party training hung after a mid-run kill")
	}
}

// TestChaosGroupKillAbortsByDefault kills one session of a 3-party group
// mid-epoch without loss tolerance: the default contract is whole-group
// abort, with RunGroup's teardown unblocking the survivors.
func TestChaosGroupKillAbortsByDefault(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-killg", 12, 12, 2, false), 3)
	as, g, _ := faultGroupPipe(t, 3, 603, 1, transport.FaultPlan{KillAtMsg: 20})
	done := make(chan error, 1)
	go func() {
		_, err := Trainer{Kind: LR, Hyper: chaosHyper()}.Train(ds, PartySet{As: as, B: g})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("group training completed after a session kill without ContinueOnLoss")
		}
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("err = %v, want transport.ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("group training hung after a mid-epoch session kill")
	}
}

// TestChaosGroupKillContinueOnLoss is the recovery half of satellite 4: with
// ContinueOnLoss the two surviving sessions finish the epoch, the label
// party's history reports exactly which session died, and the metrics stay
// finite — a degraded-but-honest run, not an abort and not silent garbage.
func TestChaosGroupKillContinueOnLoss(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-lossy", 12, 12, 2, false), 3)
	as, g, fc := faultGroupPipe(t, 3, 604, 1, transport.FaultPlan{KillAtMsg: 20})
	type result struct {
		hist *History
		err  error
	}
	done := make(chan result, 1)
	go func() {
		hist, err := Trainer{Kind: LR, Hyper: chaosHyper(), ContinueOnLoss: true}.Train(ds, PartySet{As: as, B: g})
		done <- result{hist, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("lossy run failed instead of continuing: %v", r.err)
		}
		if !fc.Injected().Killed {
			t.Fatal("kill schedule never fired")
		}
		if r.hist.LostSessions == nil || !r.hist.LostSessions[1] {
			t.Fatalf("LostSessions = %v, want session 1 lost", r.hist.LostSessions)
		}
		if r.hist.LostSessions[0] || r.hist.LostSessions[2] {
			t.Fatalf("LostSessions = %v, surviving sessions marked lost", r.hist.LostSessions)
		}
		if math.IsNaN(r.hist.TestMetric) || math.IsInf(r.hist.TestMetric, 0) {
			t.Fatalf("lossy run produced non-finite metric %v", r.hist.TestMetric)
		}
		for i, l := range r.hist.Losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("lossy run produced non-finite loss %v at iteration %d", l, i)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ContinueOnLoss training hung after a mid-epoch session kill")
	}
}

// TestChaosLossyRunRefusesCheckpoint pins the partial-checkpoint guard: a
// run that lost a session never captured that session's layer half, so
// asking for a serve checkpoint must fail typed rather than write a model
// with a hole in it.
func TestChaosLossyRunRefusesCheckpoint(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-lossyck", 12, 12, 2, false), 3)
	as, g, _ := faultGroupPipe(t, 3, 605, 1, transport.FaultPlan{KillAtMsg: 20})
	var sink discardWriter
	_, err := Trainer{Kind: LR, Hyper: chaosHyper(), ContinueOnLoss: true, Checkpoint: &sink}.
		Train(ds, PartySet{As: as, B: g})
	if err == nil {
		t.Fatal("lossy run wrote a checkpoint missing a session's layer half")
	}
	if !errors.Is(err, protocol.ErrSessionLost) {
		t.Fatalf("err = %v, want protocol.ErrSessionLost", err)
	}
}

// lateFaultConn is Party A's endpoint with a fault plan that wakes up at A's
// from-th stream chunk: sends before it go out clean, that chunk and
// everything after it through the FaultConn on the same endpoint.
type lateFaultConn struct {
	transport.Conn
	faulty *transport.FaultConn
	from   int
	chunks int
}

func (c *lateFaultConn) Send(v any) error {
	if _, ok := v.(*transport.StreamChunk); ok {
		c.chunks++
	}
	if c.chunks >= c.from {
		return c.faulty.Send(v)
	}
	return c.Conn.Send(v)
}

// TestChaosSparseFinalGradientNack corrupts the last thing a sparse run's
// feature party sends: the masked touched-row gradient of the final step,
// after which A has nothing left to receive. A's Backward ends on that
// stream's ack and not on the send, so with one corruption the NACK finds A
// still listening, the resend repairs the transfer and the run — losses, and
// the logits of a forward pass over the weights the final update produced —
// is the clean run bit for bit; with the resend corrupted too, both parties
// end in the typed ErrCorrupt. Had A returned on send, B would wait for a
// resend nobody is left to make.
func TestChaosSparseFinalGradientNack(t *testing.T) {
	const steps = 3
	ds := data.Generate(tinySpec("t-chaos-lastgrad", 60, 6, 2, false), 3)
	h := tinyHyper()
	batch := func(step int) []int {
		idx := make([]int, h.Batch)
		for i := range idx {
			idx[i] = step*h.Batch + i
		}
		return idx
	}
	// run trains steps batches with A's endpoint corrupting faults chunks from
	// the final gradient on, and returns the losses and final test logits, or
	// each party's error.
	run := func(t *testing.T, faults int64) (out []float64, errA, errB error) {
		skA, skB := protocol.TestKeys()
		ca, cb := transport.Pair(4096)
		var connA transport.Conn = ca
		if faults > 0 {
			// A ships three one-chunk streams a step: rows, product, gradient.
			fc := transport.NewFaultConn(ca, 606, "chaos-lastgrad", transport.FaultPlan{FlipProb: 1, MaxFaults: faults})
			connA = &lateFaultConn{Conn: ca, faulty: fc, from: 3 * steps}
			defer func() {
				if got := fc.Injected().Flips; got != faults {
					t.Errorf("%d chunks corrupted, want %d", got, faults)
				}
			}()
		}
		pa, pb, err := protocol.PipeOn(connA, cb, skA, skB, 606)
		if err != nil {
			t.Fatal(err)
		}
		var ma *FedA
		var mb *FedB
		if err := protocol.RunParties(pa, pb,
			func() { ma = NewFedA(pa, LR, ds, h) },
			func() { mb = NewFedB(pb, LR, ds, h) },
		); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 2)
		go func() {
			done <- pa.Run(func() {
				for s := 0; s < steps; s++ {
					ma.StepA(ds.TrainA.Batch(batch(s)))
				}
			})
		}()
		go func() {
			errB = pb.Run(func() {
				for s := 0; s < steps; s++ {
					out = append(out, mb.StepB(ds.TrainB.Batch(batch(s)), gather(ds.TrainY, batch(s))))
				}
			})
			done <- nil
		}()
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					errA = err
				}
			case <-time.After(30 * time.Second):
				pa.Conn.Close()
				pb.Conn.Close()
				t.Fatal("a party hung on the corrupted final gradient")
			}
		}
		if errA != nil || errB != nil {
			return nil, errA, errB
		}
		if err := protocol.RunParties(pa, pb,
			func() { ma.ForwardA(ds.TestA) },
			func() { out = append(out, mb.ForwardB(ds.TestB).Data...) },
		); err != nil {
			t.Fatal(err)
		}
		return out, nil, nil
	}

	clean, errA, errB := run(t, 0)
	if errA != nil || errB != nil {
		t.Fatalf("clean run failed: %v / %v", errA, errB)
	}
	got, errA, errB := run(t, 1)
	if errA != nil || errB != nil {
		t.Fatalf("one corrupted chunk was not repaired: %v / %v", errA, errB)
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("value %d diverges after the resend: %v vs clean %v", i, got[i], clean[i])
		}
	}
	_, errA, errB = run(t, 2)
	if !errors.Is(errA, transport.ErrCorrupt) || !errors.Is(errB, transport.ErrCorrupt) {
		t.Fatalf("a twice-corrupted final gradient must end both parties in ErrCorrupt: A %v, B %v", errA, errB)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestChaosSpotCheckCleanRun runs the decrypt spot-check over a clean
// streamed and a clean monolithic run: checks must fire, mismatches must be
// zero, and the probe must not perturb the training trajectory (its
// randomness comes from a dedicated derivation, not the mask streams).
func TestChaosSpotCheckCleanRun(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-spot", 12, 12, 2, false), 3)
	for _, stream := range []bool{false, true} {
		name := "monolithic"
		if stream {
			name = "streamed"
		}
		t.Run(name, func(t *testing.T) {
			h := chaosHyper()
			h.Stream = stream

			run := func(spot bool) (*History, *protocol.Peer) {
				pa, pb := fedPipe(t, 610)
				h.SpotCheck = spot
				hist, err := trainOn(LR, ds, h, Pair(pa, pb))
				if err != nil {
					t.Fatal(err)
				}
				return hist, pb
			}
			clean, _ := run(false)
			checked, pb := run(true)

			if pb.Stream.SpotChecks == 0 {
				t.Fatal("spot-check enabled but no rows were checked")
			}
			if pb.Stream.SpotMismatches != 0 {
				t.Fatalf("clean run reported %d spot-check mismatches", pb.Stream.SpotMismatches)
			}
			for i := range checked.Losses {
				if checked.Losses[i] != clean.Losses[i] {
					t.Fatalf("loss %d diverges with spot-checks on: %v vs %v", i, checked.Losses[i], clean.Losses[i])
				}
			}
			if checked.TestMetric != clean.TestMetric {
				t.Fatalf("test metric diverges with spot-checks on: %v vs %v", checked.TestMetric, clean.TestMetric)
			}
		})
	}
}

// TestChaosRetryPredictorRecovers exercises the bounded-retry serve-session
// setup: the first attempt dies on a killed connection, the second one — on
// fresh sessions — succeeds. A permanent error (garbage checkpoint) must
// not be retried.
func TestChaosRetryPredictorRecovers(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-retry", 12, 12, 2, false), 3)
	h := chaosHyper()
	h.Stream = false
	skA, skB := protocol.TestKeys()
	pa, pb := fedPipe(t, 619)
	var buf bytes.Buffer
	if _, err := (Trainer{Kind: LR, Hyper: h, Checkpoint: &buf}).Train(ds, Pair(pa, pb)); err != nil {
		t.Fatal(err)
	}
	ck := buf.Bytes()

	attempts := 0
	p, err := RetryPredictor(3, time.Millisecond, func(attempt int) (*Predictor, error) {
		attempts++
		skAs := []*paillier.PrivateKey{skA}
		if attempt == 0 {
			// First attempt: the weight exchange dies on a killed connection.
			as, g, _ := faultGroupPipe(t, 1, 620, 0, transport.FaultPlan{KillAtMsg: 2})
			return NewPredictor(bytes.NewReader(ck), PartySet{As: as, B: g})
		}
		as, g, err := protocol.GroupPipe(skAs, skB, 621)
		if err != nil {
			return nil, err
		}
		return NewPredictor(bytes.NewReader(ck), PartySet{As: as, B: g})
	})
	if err != nil {
		t.Fatalf("RetryPredictor failed despite a healthy second attempt: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("RetryPredictor used %d attempts, want 2", attempts)
	}
	if p == nil || p.K() != 1 {
		t.Fatalf("RetryPredictor returned a malformed predictor")
	}

	attempts = 0
	_, err = RetryPredictor(3, time.Millisecond, func(int) (*Predictor, error) {
		attempts++
		as, g, gerr := protocol.GroupPipe([]*paillier.PrivateKey{skA}, skB, 622)
		if gerr != nil {
			return nil, gerr
		}
		defer g.Close()
		return NewPredictor(bytes.NewReader([]byte("not a checkpoint")), PartySet{As: as, B: g})
	})
	if err == nil {
		t.Fatal("RetryPredictor accepted a garbage checkpoint")
	}
	if attempts != 1 {
		t.Fatalf("RetryPredictor retried a permanent checkpoint error %d times", attempts)
	}
}
