package protocol

import (
	"errors"
	"strings"
	"testing"
	"time"

	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// newGroupPipe builds a k-session in-process group sharing the two test
// keys (every feature party holds skA; B holds skB).
func newGroupPipe(t testing.TB, k int, seed int64) ([]*Peer, *Group) {
	t.Helper()
	skA, skB := TestKeys()
	skAs := make([]*paillier.PrivateKey, k)
	for i := range skAs {
		skAs[i] = skA
	}
	as, g, err := GroupPipe(skAs, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return as, g
}

func TestGroupPipeHandshakesEverySession(t *testing.T) {
	as, g := newGroupPipe(t, 3, 40)
	for i, a := range as {
		if a.PeerPK.N.Cmp(g.Peers[i].SK.N) != 0 {
			t.Fatalf("session %d: A does not hold B's public key", i)
		}
		if g.Peers[i].PeerPK.N.Cmp(a.SK.N) != 0 {
			t.Fatalf("session %d: B does not hold A's public key", i)
		}
	}
}

// TestPipeAdjacentSeedsShareNoMaskStream is the regression test for the
// session mask-RNG seed collision: Pipe used to seed PartyA/PartyB with
// seed/seed+1, so two sessions built from consecutive seeds — exactly how
// the pre-Group multiparty example wired a k-party group — shared a stream:
// session i's Party B drew the same masks as session i+1's Party A. With
// the hashed (seed, session, role) derivation the streams are independent.
func TestPipeAdjacentSeedsShareNoMaskStream(t *testing.T) {
	skA, skB := TestKeys()
	_, b1, err := Pipe(skA, skB, 70)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := Pipe(skA, skB, 71)
	if err != nil {
		t.Fatal(err)
	}
	m1 := b1.Mask(4, 4)
	m2 := a2.Mask(4, 4)
	if m1.Equal(m2, 0) {
		t.Fatal("session i's PartyB mask stream equals session i+1's PartyA stream (seed+1 collision)")
	}
}

// TestGroupSessionsShareNoMaskStreams checks the group-wide form of the
// same property: all 2k mask streams of a k-session group are pairwise
// distinct, and so are the same streams at an adjacent group seed.
func TestGroupSessionsShareNoMaskStreams(t *testing.T) {
	const k = 3
	as1, g1 := newGroupPipe(t, k, 80)
	as2, g2 := newGroupPipe(t, k, 81)
	var masks []*tensor.Dense
	for _, p := range append(append([]*Peer{}, as1...), g1.Peers...) {
		masks = append(masks, p.Mask(4, 4))
	}
	for _, p := range append(append([]*Peer{}, as2...), g2.Peers...) {
		masks = append(masks, p.Mask(4, 4))
	}
	for i := range masks {
		for j := i + 1; j < len(masks); j++ {
			if masks[i].Equal(masks[j], 0) {
				t.Fatalf("mask streams %d and %d of 2 groups × %d sessions coincide", i, j, k)
			}
		}
	}
}

// TestGroupK1MatchesPipeStreams pins the degenerate-shape contract the
// model layer's bit-exactness builds on: a 1-session group draws exactly
// the streams of a two-party Pipe at the same seed.
func TestGroupK1MatchesPipeStreams(t *testing.T) {
	skA, skB := TestKeys()
	pa, pb, err := Pipe(skA, skB, 90)
	if err != nil {
		t.Fatal(err)
	}
	as, g := newGroupPipe(t, 1, 90)
	if !pa.Mask(3, 3).Equal(as[0].Mask(3, 3), 0) {
		t.Fatal("k=1 group PartyA stream differs from the two-party pipe")
	}
	if !pb.Mask(3, 3).Equal(g.Peers[0].Mask(3, 3), 0) {
		t.Fatal("k=1 group PartyB stream differs from the two-party pipe")
	}
}

// TestRunGroupUnblocksSurvivorsOnSessionFailure is the regression test for
// the k-party shutdown hang: one feature party dies mid-step while the
// other k−1 parties and the label party are blocked in Recv on their own
// healthy sessions. RunGroup must close every session's connections on the
// first error so all survivors unblock with transport.ErrClosed instead of
// hanging forever (pre-Group, the example's ad-hoc glue left them blocked;
// the CI -timeout is the backstop if this regresses).
func TestRunGroupUnblocksSurvivorsOnSessionFailure(t *testing.T) {
	as, g := newGroupPipe(t, 3, 41)
	done := make(chan error, 1)
	go func() {
		done <- RunGroup(as, g,
			func(i int) {
				if i == 1 {
					as[i].Fail("injected mid-step failure")
				}
				as[i].RecvDense() // healthy sessions: nothing will ever arrive
			},
			func() {
				g.ForEach(func(i int, p *Peer) { p.RecvDense() })
			})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "injected mid-step failure") {
			t.Fatalf("err = %v, want the injected session failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunGroup hung after a one-session failure")
	}
}

// TestRunGroupLabelPartyFailureUnblocksFeatureParties covers the teardown in
// the other direction: the label party fails inside ForEach (a type error on
// one session) while every feature party waits for a message.
func TestRunGroupLabelPartyFailureUnblocksFeatureParties(t *testing.T) {
	as, g := newGroupPipe(t, 3, 42)
	survivorErrs := make([]error, len(as))
	done := make(chan error, 1)
	go func() {
		done <- RunGroup(as, g,
			func(i int) {
				if i == 2 {
					as[i].Send([]int{1}) // session 2's B expects a Dense
				}
				_, survivorErrs[i] = as[i].Conn.Recv()
			},
			func() {
				g.ForEach(func(i int, p *Peer) {
					if i == 2 {
						p.RecvDense() // type mismatch: B dies here
					}
				})
			})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "session 2") || !strings.Contains(err.Error(), "want *tensor.Dense") {
			t.Fatalf("err = %v, want session 2's type failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunGroup hung after a label-party failure")
	}
	for i, serr := range survivorErrs {
		if !errors.Is(serr, transport.ErrClosed) {
			t.Fatalf("feature party %d Recv = %v, want ErrClosed", i, serr)
		}
	}
}

func TestRunGroupRejectsMismatchedPartyCount(t *testing.T) {
	as, g := newGroupPipe(t, 2, 43)
	if err := RunGroup(as[:1], g, func(int) {}, func() {}); err == nil {
		t.Fatal("RunGroup accepted 1 feature party for 2 sessions")
	}
}

func TestGroupForEachRunsEverySession(t *testing.T) {
	as, g := newGroupPipe(t, 4, 44)
	err := RunGroup(as, g,
		func(i int) { as[i].Send(tensor.FromSlice(1, 1, []float64{float64(i)})) },
		func() {
			got := make([]float64, g.K())
			g.ForEach(func(i int, p *Peer) { got[i] = p.RecvDense().At(0, 0) })
			for i, v := range got {
				if v != float64(i) {
					g.Peers[i].Fail("session %d delivered %v", i, v)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// faultedGroup assembles a k-session group whose faultSession's Party-A
// endpoint sends through a FaultConn running plan — the harness for the
// mid-epoch session-kill teardown tests.
func faultedGroup(t *testing.T, k int, seed int64, faultSession int, plan transport.FaultPlan) ([]*Peer, *Group) {
	t.Helper()
	skA, skB := TestKeys()
	as := make([]*Peer, k)
	bs := make([]*Peer, k)
	errs := make(chan error, 2*k)
	for i := 0; i < k; i++ {
		ca, cb := transport.Pair(4096)
		var connA transport.Conn = ca
		if i == faultSession {
			connA = transport.NewFaultConn(ca, seed, "group-kill", plan)
		}
		a := NewPeer(PartyA, connA, skA, sessionRNG(seed, i, PartyA))
		b := NewPeer(PartyB, cb, skB, sessionRNG(seed, i, PartyB))
		as[i], bs[i] = a, b
		go func() { errs <- a.Handshake() }()
		go func() { errs <- b.Handshake() }()
	}
	for i := 0; i < 2*k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return as, NewGroup(bs)
}

// runKilledGroup drives four echo rounds over a 3-session group whose
// session 1 dies at its third send (mid-round 2) and returns RunGroup's
// error, guarded by the hang watchdog.
func runKilledGroup(t *testing.T, seed int64, continueOnLoss bool) (*Group, error) {
	t.Helper()
	as, g := faultedGroup(t, 3, seed, 1, transport.FaultPlan{KillAtMsg: 3})
	g.ContinueOnLoss = continueOnLoss
	done := make(chan error, 1)
	go func() {
		done <- RunGroup(as, g,
			func(i int) {
				for r := 0; r < 4; r++ {
					as[i].Send(as[i].Mask(2, 2))
					as[i].RecvDense()
				}
			},
			func() {
				for r := 0; r < 4; r++ {
					g.ForEach(func(i int, p *Peer) { p.Send(p.RecvDense()) })
				}
			})
	}()
	select {
	case err := <-done:
		return g, err
	case <-time.After(30 * time.Second):
		t.Fatal("RunGroup hung after a FaultConn session kill")
		return nil, nil
	}
}

// TestRunGroupFaultConnKillAborts pins the default contract when an injected
// fault kills one session's connection mid-epoch: the whole group aborts
// with the typed connection-loss error and every survivor unblocks.
func TestRunGroupFaultConnKillAborts(t *testing.T) {
	_, err := runKilledGroup(t, 45, false)
	if err == nil {
		t.Fatal("RunGroup completed over a killed session without ContinueOnLoss")
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want transport.ErrClosed", err)
	}
}

// TestRunGroupFaultConnKillContinueOnLoss is the recovery mode: the two
// surviving sessions finish all four rounds and the loss is surfaced
// through Lost() instead of an error.
func TestRunGroupFaultConnKillContinueOnLoss(t *testing.T) {
	g, err := runKilledGroup(t, 46, true)
	if err != nil {
		t.Fatalf("ContinueOnLoss group failed instead of continuing: %v", err)
	}
	if lost := g.Lost(); !lost[1] || lost[0] || lost[2] {
		t.Fatalf("Lost() = %v, want exactly session 1 lost", lost)
	}
	if g.LostCount() != 1 {
		t.Fatalf("LostCount() = %d, want 1", g.LostCount())
	}
}

// TestGroupAllSessionsLostFailsTyped: losing the last live session must be a
// typed whole-group failure even in ContinueOnLoss mode — there is nothing
// left to continue on.
func TestGroupAllSessionsLostFailsTyped(t *testing.T) {
	as, g := newGroupPipe(t, 2, 47)
	g.ContinueOnLoss = true
	for _, a := range as {
		a.Conn.Close()
	}
	err := g.Run(func() {
		g.ForEach(func(i int, p *Peer) { p.RecvDense() })
	})
	if err == nil {
		t.Fatal("group survived losing every session")
	}
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("err = %v, want ErrSessionLost", err)
	}
}
