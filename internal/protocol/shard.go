// Sharded label party (PR 10): the k feature-party sessions partition across
// shard worker processes on a deterministic Calvin-style schedule. Every
// process derives the identical per-epoch plan — batch permutation, chunk
// boundaries, checkpoint epochs — from the shared seed, so the shards need
// no scheduling traffic at all: the only messages are connect-time hellos
// carrying the schedule fingerprint and the per-batch data plane (partial
// activation sums up, one gradient broadcast down), and partials merge in
// fixed shard order so the sharded run is bit-identical to the
// single-process Group run.
//
// This file is the protocol layer of that design: the session→shard plan,
// the fingerprint handshake (mismatched seeds or options fail typed at
// connect), the sealed sequence-counted shard links, and the ShardGroup
// owner with RunGroup-style close-all-on-first-error teardown.
package protocol

import (
	"errors"
	"fmt"

	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// ErrShardMismatch is the typed refusal for a shard whose deterministic
// schedule disagrees with the root's: a fingerprint mismatch at connect
// (different seed, engine options or model shape) or a data-plane sequence
// desynchronization (the schedules diverged mid-run). Callers match it with
// errors.Is.
var ErrShardMismatch = errors.New("protocol: shard schedule mismatch")

// ErrShardLost is the typed error for a shard link failing mid-run: the
// worker process died or its connection broke. RunShardRoot guarantees a
// lost shard surfaces as exactly one ErrShardLost, not as the k cascading
// ErrClosed errors its teardown provokes on the surviving sessions.
var ErrShardLost = errors.New("protocol: shard lost")

// ShardPlan is the static partition of the label party's sessions across
// shard workers: sessions split contiguously, the first Sessions%Shards
// shards one wider — the same base/remainder rule data.SplitCols uses for
// feature columns, so the two partitions can never disagree about widths.
type ShardPlan struct {
	Sessions int // global session (feature party) count
	Shards   int // worker count
}

// Validate checks the plan is realizable: at least one session, at least one
// shard, and no shard left empty.
func (p ShardPlan) Validate() error {
	if p.Sessions < 1 {
		return fmt.Errorf("protocol: shard plan needs at least one session, have %d", p.Sessions)
	}
	if p.Shards < 1 {
		return fmt.Errorf("protocol: shard plan needs at least one shard, have %d", p.Shards)
	}
	if p.Shards > p.Sessions {
		return fmt.Errorf("protocol: %d shards over %d sessions would leave shards empty", p.Shards, p.Sessions)
	}
	return nil
}

// Range returns shard s's session slice [lo, hi) in global session indices.
func (p ShardPlan) Range(s int) (lo, hi int) {
	base, rem := p.Sessions/p.Shards, p.Sessions%p.Shards
	lo = s * base
	if s < rem {
		lo += s
	} else {
		lo += rem
	}
	hi = lo + base
	if s < rem {
		hi++
	}
	return lo, hi
}

// Width returns how many sessions shard s owns.
func (p ShardPlan) Width(s int) int {
	lo, hi := p.Range(s)
	return hi - lo
}

// Owner returns the shard that owns global session i.
func (p ShardPlan) Owner(i int) int {
	base, rem := p.Sessions/p.Shards, p.Sessions%p.Shards
	wide := rem * (base + 1)
	if i < wide {
		return i / (base + 1)
	}
	return rem + (i-wide)/base
}

// ShardLink is one sealed, sequence-counted conn between the root and a
// shard worker. Every message crosses inside a transport.Handshake envelope
// (structural checksum, typed transport.ErrCorrupt on mismatch), and the
// data-plane messages carry per-direction ordinals both ends count in
// lockstep, so a desynchronized schedule fails typed instead of silently
// merging the wrong batch.
type ShardLink struct {
	Shard int
	Conn  transport.Conn

	seqIn, seqOut uint64
}

// sendSealed ships v inside a checksummed envelope.
func (l *ShardLink) sendSealed(v any) error {
	return l.Conn.Send(transport.NewHandshake(v))
}

// recvSealed receives and verifies one envelope.
func (l *ShardLink) recvSealed() (any, error) {
	v, err := l.Conn.Recv()
	if err != nil {
		return nil, err
	}
	hs, ok := v.(*transport.Handshake)
	if !ok {
		return nil, fmt.Errorf("protocol: shard link: %w: got %T", transport.ErrCorrupt, v)
	}
	if err := hs.Verify(); err != nil {
		return nil, fmt.Errorf("protocol: shard link: %w", err)
	}
	return hs.V, nil
}

// failLink converts a link failure into the panic the enclosing Catch/Run
// recovers. Corruption keeps its ErrCorrupt typing; everything else becomes
// ErrShardLost with the cause flattened (%v, deliberately not %w) so the
// teardown's ErrClosed cascade on the other sessions cannot masquerade as —
// or outrank — the one real loss.
func (l *ShardLink) failLink(op string, err error) {
	if errors.Is(err, transport.ErrCorrupt) {
		panic(protoErr{fmt.Errorf("shard %d %s: %w", l.Shard, op, err)})
	}
	panic(protoErr{fmt.Errorf("%w: shard %d %s: %v", ErrShardLost, l.Shard, op, err)})
}

// recvErr types a failed connect-time receive the way failLink types a
// mid-run one: a typed transport or schedule error keeps its type, and
// anything else — bytes that decode to no message, a broken socket — is the
// link lost, with the cause flattened.
func recvErr(op string, err error) error {
	for _, typed := range []error{transport.ErrCorrupt, transport.ErrClosed, transport.ErrTimeout, ErrShardMismatch} {
		if errors.Is(err, typed) {
			return fmt.Errorf("protocol: %s: %w", op, err)
		}
	}
	return fmt.Errorf("%w: %s: %v", ErrShardLost, op, err)
}

// failPayload reports a data-plane message whose payload does not fit the
// batch it claims to be for: a typed transport.ErrCorrupt naming the shard
// and the message's ordinal, where summing it would have dropped a session
// or panicked the process.
func (l *ShardLink) failPayload(op string, seq uint64, err error) {
	panic(protoErr{fmt.Errorf("shard %d %s seq %d: %w: %v", l.Shard, op, seq, transport.ErrCorrupt, err)})
}

// vetDense checks a partial or gradient against the batch shape: present,
// rows×cols, and backed by exactly rows·cols values. Values stay unchecked —
// a non-finite one is the unsharded path's business too.
func vetDense(d *tensor.Dense, rows, cols int) error {
	if d == nil {
		return errors.New("matrix missing")
	}
	if d.Rows != rows || d.Cols != cols || len(d.Data) != rows*cols {
		return fmt.Errorf("%d×%d matrix of %d values, want %d×%d", d.Rows, d.Cols, len(d.Data), rows, cols)
	}
	return nil
}

// failDesync reports a sequence-counter disagreement.
func (l *ShardLink) failDesync(op string, got, want uint64) {
	panic(protoErr{fmt.Errorf("%w: shard %d %s seq %d, want %d", ErrShardMismatch, l.Shard, op, got, want)})
}

// Send seals and ships v, panicking on failure (protocol-body style; run it
// under Peer.Run, Group.Run or Catch).
func (l *ShardLink) Send(v any) {
	if err := l.sendSealed(v); err != nil {
		l.failLink("send", err)
	}
}

// recvTyped receives one sealed message and panics unless it has the
// expected dynamic type, which the caller asserts.
func (l *ShardLink) recvTyped(op string) any {
	v, err := l.recvSealed()
	if err != nil {
		l.failLink(op, err)
	}
	return v
}

// SendParts ships one mini-batch's per-session forward partials (worker →
// root), stamping the outbound ordinal.
func (l *ShardLink) SendParts(zs []*tensor.Dense) {
	seq := l.seqOut
	l.seqOut++
	l.Send(&transport.ShardParts{Seq: seq, Zs: zs})
}

// RecvParts receives one mini-batch's partials (root side), checking the
// ordinal, the session count against the plan, and every partial against the
// rows×cols batch shape.
func (l *ShardLink) RecvParts(want, rows, cols int) []*tensor.Dense {
	m, ok := l.recvTyped("recv parts").(*transport.ShardParts)
	if !ok {
		l.failLink("recv parts", fmt.Errorf("%w: unexpected message", transport.ErrCorrupt))
	}
	if m.Seq != l.seqIn {
		l.failDesync("parts", m.Seq, l.seqIn)
	}
	l.seqIn++
	if len(m.Zs) != want {
		panic(protoErr{fmt.Errorf("%w: shard %d sent %d partials, plan says %d", ErrShardMismatch, l.Shard, len(m.Zs), want)})
	}
	for i, z := range m.Zs {
		if err := vetDense(z, rows, cols); err != nil {
			l.failPayload("parts", m.Seq, fmt.Errorf("partial %d: %w", i, err))
		}
	}
	return m.Zs
}

// SendGrad broadcasts the root's gradient for one mini-batch (root → worker).
func (l *ShardLink) SendGrad(g *tensor.Dense) {
	seq := l.seqOut
	l.seqOut++
	l.Send(&transport.ShardGrad{Seq: seq, G: g})
}

// RecvGrad receives the gradient broadcast (worker side) for a rows×cols
// batch.
func (l *ShardLink) RecvGrad(rows, cols int) *tensor.Dense {
	m, ok := l.recvTyped("recv grad").(*transport.ShardGrad)
	if !ok {
		l.failLink("recv grad", fmt.Errorf("%w: unexpected message", transport.ErrCorrupt))
	}
	if m.Seq != l.seqIn {
		l.failDesync("grad", m.Seq, l.seqIn)
	}
	l.seqIn++
	if err := vetDense(m.G, rows, cols); err != nil {
		l.failPayload("grad", m.Seq, err)
	}
	return m.G
}

// SendShare ships the worker's pre-summed serve-path share partial for one
// eval batch.
func (l *ShardLink) SendShare(s *hetensor.BigMatrix) {
	seq := l.seqOut
	l.seqOut++
	l.Send(&transport.ShardShare{Seq: seq, S: s})
}

// RecvShare receives one shard's share partial (root side): rows×cols at
// the given scale.
func (l *ShardLink) RecvShare(rows, cols int, scale uint) *hetensor.BigMatrix {
	m, ok := l.recvTyped("recv share").(*transport.ShardShare)
	if !ok {
		l.failLink("recv share", fmt.Errorf("%w: unexpected message", transport.ErrCorrupt))
	}
	if m.Seq != l.seqIn {
		l.failDesync("share", m.Seq, l.seqIn)
	}
	l.seqIn++
	if err := vetShare(m.S, rows, cols, scale); err != nil {
		l.failPayload("share", m.Seq, err)
	}
	return m.S
}

// SendLayers ships the worker's serialized per-session layer halves for a
// checkpoint boundary.
func (l *ShardLink) SendLayers(epoch int, blobs [][]byte) {
	l.Send(&transport.ShardLayers{Epoch: epoch, Blobs: blobs})
}

// RecvLayers receives one shard's layer blobs, checking the epoch marker and
// blob count.
func (l *ShardLink) RecvLayers(epoch, want int) [][]byte {
	m, ok := l.recvTyped("recv layers").(*transport.ShardLayers)
	if !ok {
		l.failLink("recv layers", fmt.Errorf("%w: unexpected message", transport.ErrCorrupt))
	}
	if m.Epoch != epoch || len(m.Blobs) != want {
		panic(protoErr{fmt.Errorf("%w: shard %d sent %d layer blobs for epoch %d, want %d for epoch %d",
			ErrShardMismatch, l.Shard, len(m.Blobs), m.Epoch, want, epoch)})
	}
	return m.Blobs
}

// ShardGroup owns the root's side of a sharded run: the plan, one link per
// shard, and every session conn dialed through it. Close tears the whole set
// down close-once; RunShardRoot invokes it on the first party error so
// survivors unblock with ErrClosed instead of hanging (the RunGroup
// discipline, one level up).
type ShardGroup struct {
	Plan  ShardPlan
	links []*ShardLink

	// sessions are the feature-party conns DialSessions opened; they belong
	// to the group so one Close tears down the data plane and the sessions
	// together.
	sessions []transport.Conn
}

// ConnectShards dials every worker in the plan, runs the sealed hello/ack
// exchange carrying the schedule fingerprint, and returns the connected
// group. Any dial, transport or fingerprint failure closes everything opened
// so far and returns a typed error (ErrShardMismatch for a schedule
// disagreement).
func ConnectShards(plan ShardPlan, fp uint64, dial func(shard int) (transport.Conn, error)) (*ShardGroup, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	sg := &ShardGroup{Plan: plan}
	for s := 0; s < plan.Shards; s++ {
		c, err := dial(s)
		if err != nil {
			sg.Close()
			return nil, fmt.Errorf("protocol: dialing shard %d: %w", s, err)
		}
		l := &ShardLink{Shard: s, Conn: c}
		sg.links = append(sg.links, l)
		hello := &transport.ShardHello{Shard: s, Shards: plan.Shards, Sessions: plan.Sessions, Fingerprint: fp}
		if err := l.sendSealed(hello); err != nil {
			sg.Close()
			return nil, fmt.Errorf("protocol: shard %d hello: %w", s, err)
		}
		v, err := l.recvSealed()
		if err != nil {
			sg.Close()
			return nil, recvErr(fmt.Sprintf("shard %d ack", s), err)
		}
		ack, ok := v.(*transport.ShardAck)
		if !ok {
			sg.Close()
			return nil, fmt.Errorf("protocol: shard %d ack: %w: got %T", s, transport.ErrCorrupt, v)
		}
		if ack.Shard != s || ack.Fingerprint != fp {
			sg.Close()
			return nil, fmt.Errorf("%w: shard %d acked shard=%d fingerprint=%016x, want shard=%d fingerprint=%016x",
				ErrShardMismatch, s, ack.Shard, ack.Fingerprint, s, fp)
		}
	}
	return sg, nil
}

// Link returns shard s's link (for the worker-side setup exchange).
func (sg *ShardGroup) Link(s int) *ShardLink { return sg.links[s] }

// Setup ships the model layer's opaque setup document to shard s and checks
// the worker's post-setup ack: the worker recomputes the schedule
// fingerprint from the document's contents and echoes it, so a worker that
// would run a different schedule is refused here, before any training
// traffic.
func (sg *ShardGroup) Setup(s int, kind string, doc []byte, fp uint64) error {
	l := sg.links[s]
	if err := l.sendSealed(&transport.ShardBlob{Kind: kind, Data: doc}); err != nil {
		return fmt.Errorf("protocol: shard %d setup: %w", s, err)
	}
	v, err := l.recvSealed()
	if err != nil {
		return recvErr(fmt.Sprintf("shard %d setup ack", s), err)
	}
	ack, ok := v.(*transport.ShardAck)
	if !ok {
		return fmt.Errorf("protocol: shard %d setup ack: %w: got %T", s, transport.ErrCorrupt, v)
	}
	if ack.Fingerprint != fp {
		return fmt.Errorf("%w: shard %d computed schedule fingerprint %016x, root has %016x",
			ErrShardMismatch, s, ack.Fingerprint, fp)
	}
	return nil
}

// DialSessions opens one feature-party conn per session through dial (routed
// to the session's owner shard) and sends each its sealed SessionHello. The
// conns join the group's teardown set; on any failure everything is closed
// and a typed error returned.
func (sg *ShardGroup) DialSessions(fp uint64, dial func(shard int) (transport.Conn, error)) ([]transport.Conn, error) {
	conns := make([]transport.Conn, sg.Plan.Sessions)
	for i := 0; i < sg.Plan.Sessions; i++ {
		c, err := dial(sg.Plan.Owner(i))
		if err != nil {
			sg.Close()
			return nil, fmt.Errorf("protocol: dialing session %d (shard %d): %w", i, sg.Plan.Owner(i), err)
		}
		sg.sessions = append(sg.sessions, c)
		l := ShardLink{Shard: sg.Plan.Owner(i), Conn: c}
		if err := l.sendSealed(&transport.SessionHello{Session: i, Fingerprint: fp}); err != nil {
			sg.Close()
			return nil, fmt.Errorf("protocol: session %d hello: %w", i, err)
		}
		conns[i] = c
	}
	return conns, nil
}

// GatherParts receives one mini-batch's rows×cols forward partials from
// every shard and lays them out in global session order — the fixed merge
// order the bit-exactness contract depends on. Panics protocol-style on
// failure.
func (sg *ShardGroup) GatherParts(rows, cols int) []*tensor.Dense {
	zs := make([]*tensor.Dense, sg.Plan.Sessions)
	for s, l := range sg.links {
		lo, hi := sg.Plan.Range(s)
		copy(zs[lo:hi], l.RecvParts(hi-lo, rows, cols))
	}
	return zs
}

// BroadcastGrad ships the root's gradient to every shard.
func (sg *ShardGroup) BroadcastGrad(g *tensor.Dense) {
	for _, l := range sg.links {
		l.SendGrad(g)
	}
}

// GatherShareSum receives every shard's serve-path share partial and folds
// them in fixed shard order. Shares are exact scaled integers, so the
// shard-order fold plus each worker's session-order pre-sum equals the
// all-sessions session-order fold bit for bit — the associativity the float
// training partials do not have, which is why GatherParts ships per-session
// matrices instead. Each partial must be rows×cols at the given scale.
func (sg *ShardGroup) GatherShareSum(rows, cols int, scale uint) *hetensor.BigMatrix {
	var sum *hetensor.BigMatrix
	for _, l := range sg.links {
		sh := l.RecvShare(rows, cols, scale)
		if sum == nil {
			sum = sh
		} else {
			sum.AddInPlace(sh)
		}
	}
	return sum
}

// GatherLayers receives every shard's serialized layer halves for a
// checkpoint boundary, in global session order.
func (sg *ShardGroup) GatherLayers(epoch int) [][]byte {
	blobs := make([][]byte, sg.Plan.Sessions)
	for s, l := range sg.links {
		lo, hi := sg.Plan.Range(s)
		copy(blobs[lo:hi], l.RecvLayers(epoch, hi-lo))
	}
	return blobs
}

// Close tears down every shard link and every session conn the group owns.
// Conn closes are close-once, so Close is safe to call from any number of
// error paths.
func (sg *ShardGroup) Close() error {
	for _, l := range sg.links {
		l.Conn.Close()
	}
	for _, c := range sg.sessions {
		c.Close()
	}
	return nil
}

// RunShardRoot runs the k in-process feature parties and the root label-party
// loop concurrently, with the shard-mode teardown contract: the first error
// closes every feature-party conn and the whole shard group, and the error
// reported is the *one* that names the failure — a lost shard surfaces as a
// single typed ErrShardLost, never as the cascade of ErrClosed errors the
// teardown provokes on the surviving parties (the Group.CloseSession /
// markLost lesson, applied across processes).
func RunShardRoot(as []*Peer, sg *ShardGroup, fa func(i int) error, fb func() error) error {
	parties := make([]func() error, 0, len(as)+1)
	for i := range as {
		parties = append(parties, func() error { return fa(i) })
	}
	parties = append(parties, fb)
	all := runAll(func() {
		for _, p := range as {
			p.Conn.Close()
		}
		sg.Close()
	}, parties...)
	if len(all) == 0 {
		return nil
	}
	// Prefer the typed loss, then any non-cascade error, then first arrival.
	for _, err := range all {
		if errors.Is(err, ErrShardLost) {
			return err
		}
	}
	for _, err := range all {
		if !errors.Is(err, transport.ErrClosed) {
			return err
		}
	}
	return all[0]
}

// AcceptShard runs the worker's side of the connect exchange on the control
// conn: receive the sealed hello, validate the plan shape, and ack. The
// fingerprint is *echoed*, not yet validated — the worker can only recompute
// it once the setup document arrives (RecvSetup/AckSetup) — so a schedule
// mismatch is refused at the setup ack, still before any training traffic.
func AcceptShard(ctl transport.Conn) (*ShardLink, *transport.ShardHello, error) {
	l := &ShardLink{Conn: ctl}
	v, err := l.recvSealed()
	if err != nil {
		return nil, nil, recvErr("shard hello", err)
	}
	hello, ok := v.(*transport.ShardHello)
	if !ok {
		return nil, nil, fmt.Errorf("protocol: shard hello: %w: got %T", transport.ErrCorrupt, v)
	}
	plan := ShardPlan{Sessions: hello.Sessions, Shards: hello.Shards}
	if err := plan.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: hello: %v", ErrShardMismatch, err)
	}
	if hello.Shard < 0 || hello.Shard >= hello.Shards {
		return nil, nil, fmt.Errorf("%w: hello names shard %d of %d", ErrShardMismatch, hello.Shard, hello.Shards)
	}
	l.Shard = hello.Shard
	if err := l.sendSealed(&transport.ShardAck{Shard: hello.Shard, Fingerprint: hello.Fingerprint}); err != nil {
		return nil, nil, fmt.Errorf("protocol: shard ack: %w", err)
	}
	return l, hello, nil
}

// RecvSetup receives the model layer's sealed setup document (worker side).
func (l *ShardLink) RecvSetup() (*transport.ShardBlob, error) {
	v, err := l.recvSealed()
	if err != nil {
		return nil, recvErr("shard setup", err)
	}
	blob, ok := v.(*transport.ShardBlob)
	if !ok {
		return nil, fmt.Errorf("protocol: shard setup: %w: got %T", transport.ErrCorrupt, v)
	}
	return blob, nil
}

// AckSetup echoes the fingerprint the worker computed from the setup
// document. The root compares it against its own (ShardGroup.Setup), and the
// worker returns ErrShardMismatch itself when the hello promised a different
// schedule, so both ends refuse typed.
func (l *ShardLink) AckSetup(computed, hello uint64) error {
	if err := l.sendSealed(&transport.ShardAck{Shard: l.Shard, Fingerprint: computed}); err != nil {
		return fmt.Errorf("protocol: shard setup ack: %w", err)
	}
	if computed != hello {
		return fmt.Errorf("%w: setup document yields fingerprint %016x, hello promised %016x",
			ErrShardMismatch, computed, hello)
	}
	return nil
}

// AcceptSessions receives the shard's session conns from accept, validating
// each sealed SessionHello (fingerprint, ownership, no duplicates), and
// returns them ordered by shard-local session index. Accepted conns are
// registered with w immediately so the caller's deferred w.Close() owns them
// on every failure path.
func AcceptSessions(accept func() (transport.Conn, error), plan ShardPlan, shard int, fp uint64, w *WorkerConns) ([]transport.Conn, error) {
	lo, hi := plan.Range(shard)
	conns := make([]transport.Conn, hi-lo)
	for n := 0; n < hi-lo; n++ {
		c, err := accept()
		if err != nil {
			return nil, fmt.Errorf("protocol: accepting session conn: %w", err)
		}
		w.Add(c)
		l := ShardLink{Shard: shard, Conn: c}
		v, err := l.recvSealed()
		if err != nil {
			return nil, recvErr("session hello", err)
		}
		hello, ok := v.(*transport.SessionHello)
		if !ok {
			return nil, fmt.Errorf("protocol: session hello: %w: got %T", transport.ErrCorrupt, v)
		}
		if hello.Fingerprint != fp {
			return nil, fmt.Errorf("%w: session %d hello carries fingerprint %016x, shard runs %016x",
				ErrShardMismatch, hello.Session, hello.Fingerprint, fp)
		}
		if hello.Session < lo || hello.Session >= hi {
			return nil, fmt.Errorf("%w: session %d is not owned by shard %d (range [%d,%d))",
				ErrShardMismatch, hello.Session, shard, lo, hi)
		}
		if conns[hello.Session-lo] != nil {
			return nil, fmt.Errorf("%w: session %d connected twice", ErrShardMismatch, hello.Session)
		}
		conns[hello.Session-lo] = c
	}
	return conns, nil
}

// WorkerConns owns every conn a shard worker holds — the control link and
// its accepted session conns. Close is the worker's close-once-all teardown:
// deferred at the top of the worker loop, it guarantees a worker that fails
// (or finishes) releases the root and every feature party instead of
// stranding them in Recv.
type WorkerConns struct {
	Ctl      transport.Conn
	Sessions []transport.Conn
}

// Add registers a session conn with the teardown set.
func (w *WorkerConns) Add(c transport.Conn) { w.Sessions = append(w.Sessions, c) }

// Close closes the control link and every session conn (all close-once).
func (w *WorkerConns) Close() error {
	if w.Ctl != nil {
		w.Ctl.Close()
	}
	for _, c := range w.Sessions {
		c.Close()
	}
	return nil
}
