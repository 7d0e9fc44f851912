package protocol

import (
	"errors"
	"fmt"

	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/transport"
)

// ErrSessionLost is the typed error for a session whose connection died
// mid-protocol while the group ran in ContinueOnLoss mode. Group helpers
// wrap it with the session index; callers match it with errors.Is.
var ErrSessionLost = errors.New("protocol: session lost")

// Multi-party session runtime (paper Appendix C, Algorithm 3): one label
// party B holds k independent two-party sessions, one per feature party
// A(i). Algorithm 3 needs no changes on the A side — each A(i) runs the
// ordinary two-party protocol against its own connection — so the group
// runtime is entirely a B-side construct: a bundle of Peers plus the
// scheduling (ForEach), error conversion (Run) and whole-group teardown
// (RunGroup) that the two-party Peer/RunParties pair provides for k = 1.
//
// Trust model: every session is an independent two-party protocol with its
// own key pair and its own connection. Feature parties never communicate
// with each other and learn nothing about each other's features, weights or
// even participation beyond what B's aggregated model reveals; B holds one
// Peer (and one mask/init RNG stream) per session.

// Group is the label party's handle on k concurrent sessions, one Peer per
// feature party. The slice order is the session order: session i of the
// group talks to the i-th feature party, and deterministic aggregation
// (partial-activation sums, gradient fan-out) follows it.
type Group struct {
	Peers []*Peer

	// ContinueOnLoss makes the group survive individual session deaths: when
	// a session's connection fails mid-protocol (its peer process died, its
	// transport closed), the session is marked lost and skipped by every
	// later ForEach, the epoch finishes on the surviving sessions, and the
	// loss is surfaced through Lost()/ErrSessionLost rather than aborting
	// the whole run. Off by default: any session failure aborts the group.
	//
	// Only connection loss (transport.ErrClosed) is survivable — integrity
	// failures (transport.ErrCorrupt) and protocol type errors still abort,
	// corrupt arithmetic must never be silently averaged away.
	ContinueOnLoss bool

	lost []bool // lost[i]: session i's connection died mid-run
}

// NewGroup bundles B-side peers into a group. The peers must already be
// handshaken (GroupPipe returns them that way).
func NewGroup(peers []*Peer) *Group {
	if len(peers) == 0 {
		panic("protocol: NewGroup needs at least one session")
	}
	return &Group{Peers: peers}
}

// K returns the number of sessions (feature parties).
func (g *Group) K() int { return len(g.Peers) }

// Lost reports which sessions have been lost (ContinueOnLoss mode). The
// returned slice is a copy; index i corresponds to session i.
func (g *Group) Lost() []bool {
	out := make([]bool, len(g.Peers))
	copy(out, g.lost)
	return out
}

// LostCount returns how many sessions have been lost so far.
func (g *Group) LostCount() int {
	n := 0
	for _, l := range g.lost {
		if l {
			n++
		}
	}
	return n
}

// Live reports whether session i is still healthy.
func (g *Group) Live(i int) bool { return g.lost == nil || !g.lost[i] }

func (g *Group) markLost(i int) {
	if g.lost == nil {
		g.lost = make([]bool, len(g.Peers))
	}
	g.lost[i] = true
}

// SeedEpoch re-derives every live session's mask RNG stream for the given
// epoch — the group-side counterpart of Peer.SeedEpoch, called by the trainer
// at every epoch boundary so a resumed group run rejoins the clean
// trajectory bit-exactly.
func (g *Group) SeedEpoch(epoch int) {
	for i, p := range g.Peers {
		if g.Live(i) {
			p.SeedEpoch(epoch)
		}
	}
}

// CloseSession closes session i's connection and marks the session lost —
// the sanctioned way for a driver to retire one session of a running group
// (ContinueOnLoss deployments draining a dead feature party).
func (g *Group) CloseSession(i int) {
	g.markLost(i)
	g.Peers[i].Conn.Close()
}

// ForEach runs f(i, session i's peer) for every session concurrently via
// internal/parallel and waits for all of them. Per-session protocol failures
// (the panics the Peer helpers raise) are captured per session and re-raised
// as one protocol failure — the lowest-index failing session — after every
// session's f has returned, so ForEach composes with Run/RunGroup exactly
// like a single-session helper. Sessions are independent protocols, so a
// failed session never blocks a healthy one inside ForEach; a healthy
// session whose *peer process* died blocks only until RunGroup's teardown
// closes its connection.
//
// f must confine itself to session i's peer; the scheduler may run any
// subset of sessions in parallel (bounded by GOMAXPROCS) and in any order.
//
// In ContinueOnLoss mode, sessions already lost are skipped, and a session
// failing with a connection loss during this call is marked lost instead of
// failing the group — unless it was the last live session, in which case the
// group fails with ErrSessionLost. All other failures abort as usual.
func (g *Group) ForEach(f func(i int, p *Peer)) {
	errs := make([]error, len(g.Peers))
	parallel.For(len(g.Peers), func(i int) {
		if g.Live(i) {
			errs[i] = Catch(fmt.Sprintf("session %d", i), func() { f(i, g.Peers[i]) })
		}
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		if g.ContinueOnLoss && errors.Is(err, transport.ErrClosed) {
			g.markLost(i)
			continue
		}
		panic(protoErr{err})
	}
	if g.LostCount() == len(g.Peers) {
		panic(protoErr{fmt.Errorf("%w: all %d sessions lost", ErrSessionLost, len(g.Peers))})
	}
}

// Run executes the label party's whole-group protocol function, converting
// Peer/ForEach helper panics into an error — the k-session counterpart of
// Peer.Run.
func (g *Group) Run(f func()) error { return Catch("PartyB", f) }

// Close closes every session's connection.
func (g *Group) Close() {
	for _, p := range g.Peers {
		p.Conn.Close()
	}
}

// RunGroup executes the k feature-party functions and the label-party
// function concurrently and returns the first error (or nil) — RunParties
// extended to a k-session group. fa(i) runs as feature party i under that
// session's Run; fb runs under the group's Run.
//
// Teardown extends the two-party close-on-first-error semantics to all k
// sessions: when any party fails, every other party is usually blocked in
// Recv on its own session (a feature party waiting for B, or B's ForEach
// waiting on the dead party's session), so RunGroup closes every session's
// connections on the first error and the k−1 survivors unblock with
// transport.ErrClosed instead of hanging forever. The group is not reusable
// after a failed run.
func RunGroup(as []*Peer, g *Group, fa func(i int), fb func()) error {
	if len(as) != g.K() {
		return fmt.Errorf("protocol: RunGroup got %d feature parties for %d sessions", len(as), g.K())
	}
	var parties []func() error
	for i, a := range as {
		parties = append(parties, func() error {
			err := a.Run(func() { fa(i) })
			if err != nil && g.ContinueOnLoss && errors.Is(err, transport.ErrClosed) {
				// The feature party lost its connection mid-run; the label
				// party marks the session lost and finishes on the survivors,
				// so the loss is not a whole-group failure.
				return nil
			}
			return err
		})
	}
	parties = append(parties, func() error { return g.Run(fb) })
	return firstErr(runAll(func() {
		for _, p := range as {
			p.Conn.Close()
		}
		g.Close()
	}, parties...))
}

// GroupPipe wires k in-process sessions between feature parties holding
// skAs[i] and a label party holding skB: per-session buffered channel
// transports, peers born with the stream coordinates (seed, 0, i), and all
// handshakes completed concurrently (pipes). It returns the A-side peers (one
// per feature party) and the B-side group. Feature parties are separate trust
// domains, so a real deployment gives each its own key; tests may pass the
// same test key k times.
func GroupPipe(skAs []*paillier.PrivateKey, skB *paillier.PrivateKey, seed int64) ([]*Peer, *Group, error) {
	k := len(skAs)
	if k == 0 {
		return nil, nil, fmt.Errorf("protocol: GroupPipe needs at least one feature party")
	}
	cas := make([]transport.Conn, k)
	cbs := make([]transport.Conn, k)
	for i := range cas {
		cas[i], cbs[i] = transport.Pair(4096)
	}
	as, bs, err := pipes(cas, cbs, skAs, skB, seed)
	if err != nil {
		return nil, nil, err
	}
	return as, NewGroup(bs), nil
}
