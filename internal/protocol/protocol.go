// Package protocol provides the two-party runtime that BlindFL's federated
// source layers are written against: a Peer (connection + own Paillier key +
// the other party's public key + mask sampling), the HE↔SS conversion
// sub-protocols of Algorithms 1 and 2, and a helper that runs both parties
// of a protocol in one process over an in-memory transport.
//
// Typed Send/Recv helpers panic on transport or type errors; Run converts
// such panics back into errors at the protocol boundary, which keeps the
// per-line protocol code as close as possible to the paper's figures.
package protocol

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"blindfl/internal/engine"
	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/rng"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Role identifies which side of the two-party protocol a Peer plays.
// Party B owns the labels and the top model; Party A is the feature-only
// party (the paper's "Party ⋄" without labels).
type Role int

const (
	PartyA Role = iota
	PartyB
)

func (r Role) String() string {
	if r == PartyA {
		return "PartyA"
	}
	return "PartyB"
}

// DefaultMaskMag is the default magnitude bound for HE2SS masks. Masks are
// sampled uniformly from [−MaskMag, MaskMag), matching the bounded-range
// masking of the paper's implementation (visible in its Figure 11, where
// secret-share pieces of unit-scale weights span roughly ±50): masks must be
// large relative to the hidden values but small enough that float64 shares
// stay exact to fixed-point tolerance.
const DefaultMaskMag = 1 << 20

// Peer is one party's handle on the protocol session.
type Peer struct {
	Role    Role
	Conn    transport.Conn
	SK      *paillier.PrivateKey // this party's key pair
	PeerPK  *paillier.PublicKey  // other party's public key
	Rng     *rand.Rand           // local randomness for masks and init
	MaskMag float64

	// Stream accumulates per-chunk accounting across matrix sends and
	// receives. Owned by this peer's protocol goroutine; read it between
	// rounds.
	Stream StreamStats

	// SpotCheck enables the probabilistic decrypt spot-check (spotcheck.go):
	// inside a sampled HE2SS decryption (one conversion in four, starting
	// with the first), one derived row is re-verified through the
	// exact-integer path; outcomes accumulate in Stream.
	SpotCheck bool

	// ANCheck enables the AHEAD-style AN-coded residue check on the serve
	// path's exact-integer share arithmetic (hetensor.IntMatMulTAN): each
	// plaintext share cell is recomputed mod a small prime alongside the
	// big-integer accumulation and verified before the share joins the
	// decrypted homomorphic half at the HE2SS boundary. Outcomes accumulate
	// in Stream (ANChecks/ANMismatches); a mismatch means the share
	// arithmetic itself — not the wire — corrupted, and is typed
	// transport.ErrCorrupt.
	ANCheck bool

	// span is the rows per chunk of this peer's producing sends (stream.go):
	// DefaultChunkRows from NewPeer, and nothing else in the engine. This
	// package's tests set other spans (0: the whole matrix) to play senders
	// of any framing, which a receiver must take as it comes.
	span int

	sendSeq, recvSeq uint64 // per-direction stream sequence numbers
	spotSeq          uint64 // spot-check ordinal (row derivation)

	// The stream coordinates this peer was born with (NewPeer): every RNG
	// stream it draws from is a pure function of them, its role and the epoch.
	seed           int64
	shard, session int
}

// SeedEpoch re-derives this peer's mask RNG stream for the given epoch from
// its stream coordinates — the Calvin-style discipline that makes mid-run
// recovery cheap: the trainer calls it at *every* epoch boundary, so the mask
// stream at epoch e is a pure function of (seed, session, role, e) and a
// resumed run rejoins the uninterrupted run's trajectory bit-exactly.
func (p *Peer) SeedEpoch(epoch int) {
	p.Rng = rand.New(rand.NewSource(rng.SessionEpoch(p.seed, p.shard, p.session, uint64(p.Role), epoch)))
}

// NewPeer assembles a Peer born with its stream coordinates: (seed, shard,
// session) name the session exactly as rng.Session takes them — shard is the
// session offset of a shard worker (0 outside sharding) and session the index
// within it, passed separately so the derivation does the folding. The
// mask/init stream is derived from them and the role; SeedEpoch re-derives it
// per epoch. Call Handshake (or HandshakeAll) before running any protocol to
// exchange public keys.
//
// Hashing (seed, session, role) keeps every stream of every session
// independent; seeding by arithmetic (seed+i, seed+i+1) would let session i's
// Party B draw session i+1's Party A masks, correlating the obfuscation values
// ε/φ across a k-party group.
//
// The connection is wrapped in a transport.StreamConn (idempotently), so
// every protocol session gets the stream NACK/resend recovery: a corrupt,
// dropped, duplicated or reordered chunk is re-requested once from the
// sender's retained copy before the session aborts with a typed error.
func NewPeer(role Role, conn transport.Conn, sk *paillier.PrivateKey, seed int64, shard, session int) *Peer {
	return &Peer{
		Role: role, Conn: transport.NewStreamConn(conn), SK: sk, MaskMag: DefaultMaskMag, span: DefaultChunkRows,
		Rng:  rand.New(rand.NewSource(rng.Session(seed, shard, session, uint64(role)))),
		seed: seed, shard: shard, session: session,
	}
}

// link is the peer's connection as the StreamConn NewPeer made it: what the
// stream sends, receives and flushes run on.
func (p *Peer) link() *transport.StreamConn { return p.Conn.(*transport.StreamConn) }

// ApplyOptions is the one place engine options reach a Peer: the run-integrity
// probes. A set probe wins over what the caller put on the Peer and an unset
// one leaves it alone; SpotCheck is the label party's probe and reaches
// Party B only.
func (p *Peer) ApplyOptions(o engine.Options) {
	p.SpotCheck = p.SpotCheck || (o.SpotCheck && p.Role == PartyB)
	p.ANCheck = p.ANCheck || o.ANCheck
}

// Handshake exchanges public keys with the peer. Party A sends first. Keys
// travel inside a checksummed transport.Handshake envelope, so a handshake
// corrupted in flight surfaces as a typed transport.ErrCorrupt at setup time
// instead of a garbled modulus silently entering the homomorphic kernels.
func (p *Peer) Handshake() error {
	if p.Role == PartyA {
		if err := p.Conn.Send(transport.NewHandshake(&p.SK.PublicKey)); err != nil {
			return err
		}
		pk, err := p.recvHandshakePK()
		if err != nil {
			return err
		}
		p.PeerPK = pk
		return nil
	}
	pk, err := p.recvHandshakePK()
	if err != nil {
		return err
	}
	p.PeerPK = pk
	return p.Conn.Send(transport.NewHandshake(&p.SK.PublicKey))
}

// HandshakeAll completes every peer's handshake concurrently — both ends of
// in-process sessions, or one party's end of many — and waits for all of
// them. The first failure closes every peer's conn, so an exchange still
// blocked on a refused or silent peer unblocks instead of leaking, and is the
// error returned.
func HandshakeAll(peers ...*Peer) error {
	exchanges := make([]func() error, len(peers))
	for i, p := range peers {
		exchanges[i] = p.Handshake
	}
	return firstErr(runAll(func() {
		for _, p := range peers {
			p.Conn.Close()
		}
	}, exchanges...))
}

// The moduli a handshake accepts: from the smallest key any peer here runs
// with (TestKeys) to the largest a deployment would plausibly choose.
const (
	minPeerKeyBits = 512
	maxPeerKeyBits = 8192
)

// vetPeerKey rejects a received public key the kernels could not use: a nil,
// non-positive or even modulus, one outside [minPeerKeyBits, maxPeerKeyBits],
// or an N2 that is not N·N (the size is checked first, so a huge N is never
// squared). A well-formedness check, not authentication: a peer can still send
// a valid key of its choosing.
func vetPeerKey(pk *paillier.PublicKey) error {
	var why string
	switch {
	case pk == nil || pk.N == nil:
		why = "nil modulus"
	case pk.N.Sign() <= 0 || pk.N.Bit(0) == 0:
		why = "modulus not positive and odd"
	case pk.N.BitLen() < minPeerKeyBits || pk.N.BitLen() > maxPeerKeyBits:
		why = fmt.Sprintf("%d-bit modulus outside [%d, %d] bits", pk.N.BitLen(), minPeerKeyBits, maxPeerKeyBits)
	case pk.N2 == nil || pk.N2.Cmp(new(big.Int).Mul(pk.N, pk.N)) != 0:
		why = "N2 is not N·N"
	default:
		return nil
	}
	return fmt.Errorf("protocol: handshake: %w: peer key: %s", transport.ErrCorrupt, why)
}

// recvHandshakePK receives, verifies and vets one sealed public-key handshake.
func (p *Peer) recvHandshakePK() (*paillier.PublicKey, error) {
	v, err := p.Conn.Recv()
	if err != nil {
		return nil, err
	}
	hs, ok := v.(*transport.Handshake)
	if !ok {
		return nil, fmt.Errorf("protocol: handshake: %w: got %T", transport.ErrCorrupt, v)
	}
	if err := hs.Verify(); err != nil {
		return nil, fmt.Errorf("protocol: handshake: %w", err)
	}
	pk, ok := hs.V.(*paillier.PublicKey)
	if !ok {
		return nil, fmt.Errorf("protocol: handshake: %w: want public key, got %T", transport.ErrCorrupt, hs.V)
	}
	if err := vetPeerKey(pk); err != nil {
		return nil, err
	}
	return pk, nil
}

// Within runs op under a setup deadline (0 = none). On expiry it calls abort
// — which must unblock op, typically by closing the connection op waits on —
// waits for op to return, and reports a typed transport.ErrTimeout. It is
// the bounded-setup primitive behind the serve CLI's session-setup deadline.
func Within(d time.Duration, abort func(), op func() error) error {
	if d <= 0 {
		return op()
	}
	done := make(chan error, 1)
	go func() { done <- op() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		abort()
		<-done
		return fmt.Errorf("protocol: setup exceeded %v: %w", d, transport.ErrTimeout)
	}
}

// protoErr carries a protocol failure through panic/recover inside Catch.
type protoErr struct{ err error }

// Catch executes f, converting protocol-helper panics into an error labelled
// with who failed; any other panic propagates. It is the one recovery point:
// Peer.Run, Group.Run and each session of Group.ForEach run under it, and so
// do callers (the shard root and worker loops) that drive protocol layers
// outside a party runner.
func Catch(label string, f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(protoErr); ok {
				err = fmt.Errorf("%s: %w", label, pe.err)
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// Run executes f as this peer's party, converting Peer helper panics into an
// error.
func (p *Peer) Run(f func()) error { return Catch(p.Role.String(), f) }

// Fail raises a protocol failure from code running under Run: the helpers
// here, and layer checks (like core's AN-coded residue verification) that
// live outside this package but inside a Run/RunParties/RunGroup scope.
func (p *Peer) Fail(format string, args ...any) {
	panic(protoErr{fmt.Errorf(format, args...)})
}

// Send transmits a message, panicking (inside Run) on failure.
func (p *Peer) Send(v any) {
	if err := p.Conn.Send(v); err != nil {
		p.Fail("send: %w", err)
	}
}

// recvAs receives the next message as a T, failing (inside Run) on a
// transport error or any other type.
func recvAs[T any](p *Peer) T {
	v, err := p.Conn.Recv()
	if err != nil {
		p.Fail("recv: %w", err)
	}
	t, ok := v.(T)
	if !ok {
		p.Fail("recv: want %T, got %T", t, v)
	}
	return t
}

// RecvDense receives a *tensor.Dense.
func (p *Peer) RecvDense() *tensor.Dense { return recvAs[*tensor.Dense](p) }

// RecvBig receives a *hetensor.BigMatrix (an integer serve share) and vets
// it against the rows×cols shape and scale it must have (vetShare).
func (p *Peer) RecvBig(rows, cols int, scale uint) *hetensor.BigMatrix {
	m := recvAs[*hetensor.BigMatrix](p)
	if err := vetShare(m, rows, cols, scale); err != nil {
		p.Fail("recv: %w: %v", transport.ErrCorrupt, err)
	}
	return m
}

// vetShare checks a serve share against the batch shape and scale, every
// entry present.
func vetShare(m *hetensor.BigMatrix, rows, cols int, scale uint) error {
	if m == nil {
		return errors.New("share missing")
	}
	if m.Rows != rows || m.Cols != cols || m.Scale != scale || len(m.V) != rows*cols {
		return fmt.Errorf("%d×%d@%d share of %d entries, want %d×%d@%d", m.Rows, m.Cols, m.Scale, len(m.V), rows, cols, scale)
	}
	for i, v := range m.V {
		if v == nil {
			return fmt.Errorf("share entry %d missing", i)
		}
	}
	return nil
}

// RecvInts receives a []int (e.g. a touched-coordinate set).
func (p *Peer) RecvInts() []int { return recvAs[[]int](p) }

// Mask samples a rows×cols matrix of uniform values in [−MaskMag, MaskMag),
// the obfuscation values (ε, φ, ξ, ρ …) of the paper's protocols.
func (p *Peer) Mask(rows, cols int) *tensor.Dense {
	return tensor.RandDense(p.Rng, rows, cols, p.MaskMag)
}

// Pipe wires two in-process peers together over a buffered channel
// transport and completes the handshake. Intended for tests, benchmarks and
// single-binary simulation.
func Pipe(skA, skB *paillier.PrivateKey, seed int64) (*Peer, *Peer, error) {
	ca, cb := transport.Pair(4096)
	return PipeOn(ca, cb, skA, skB, seed)
}

// PipeOn is Pipe over caller-supplied connections (a simulated-WAN pair, an
// established TCP session): session 0 of a one-session group, so its streams
// are exactly those of a group's session 0.
func PipeOn(ca, cb transport.Conn, skA, skB *paillier.PrivateKey, seed int64) (*Peer, *Peer, error) {
	as, bs, err := pipes([]transport.Conn{ca}, []transport.Conn{cb}, []*paillier.PrivateKey{skA}, skB, seed)
	if err != nil {
		return nil, nil, err
	}
	return as[0], bs[0], nil
}

// pipes opens one session per conn pair — the one constructor behind Pipe,
// PipeOn and GroupPipe: session i joins the feature party holding skAs[i] on
// cas[i] to the label party holding skB on cbs[i], both peers born with the
// stream coordinates (seed, 0, i), and every handshake completes under
// HandshakeAll.
func pipes(cas, cbs []transport.Conn, skAs []*paillier.PrivateKey, skB *paillier.PrivateKey, seed int64) ([]*Peer, []*Peer, error) {
	as := make([]*Peer, len(cas))
	bs := make([]*Peer, len(cbs))
	for i := range cas {
		as[i] = NewPeer(PartyA, cas[i], skAs[i], seed, 0, i)
		bs[i] = NewPeer(PartyB, cbs[i], skB, seed, 0, i)
	}
	if err := HandshakeAll(append(as, bs...)...); err != nil {
		return nil, nil, err
	}
	return as, bs, nil
}

// runAll is the one party runner behind RunParties, RunGroup, RunShardRoot
// and HandshakeAll: it runs every party concurrently and waits for all of
// them. When one party fails, the others are usually blocked in Recv on a
// message that will never come, so the first failure calls teardown (once)
// and the survivors unblock with transport.ErrClosed instead of hanging
// forever. It returns the failures in arrival order, the first being the one
// that set off the teardown.
func runAll(teardown func(), parties ...func() error) []error {
	errs := make(chan error, len(parties))
	for _, f := range parties {
		go func() { errs <- f() }()
	}
	var failed []error
	for range parties {
		if err := <-errs; err != nil {
			if failed == nil {
				teardown()
			}
			failed = append(failed, err)
		}
	}
	return failed
}

// firstErr is the first of a runner's failures, or nil.
func firstErr(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}

// RunParties executes both party functions concurrently and returns the
// first error (or nil). It is the standard way to drive a whole protocol in
// one process. The first error closes both connections (runAll), so the
// session is not reusable after a failed run.
func RunParties(a, b *Peer, fa, fb func()) error {
	return firstErr(runAll(func() {
		a.Conn.Close()
		b.Conn.Close()
	}, func() error { return a.Run(fa) }, func() error { return b.Run(fb) }))
}
