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

	// Stream identity: the (seed, session) pair this peer's RNG streams are
	// derived from, recorded by Pipe/PipeOn/GroupPipe (or SetStreamIdentity)
	// so SeedEpoch can re-derive the mask stream at any epoch boundary.
	idSeed      int64
	idSession   int
	hasIdentity bool
}

// SetStreamIdentity records the (seed, session) pair this peer's RNG streams
// were derived from, enabling SeedEpoch. The protocol pipes set it
// automatically; callers assembling peers over their own transports with
// SessionRNG should set it with the same values.
func (p *Peer) SetStreamIdentity(seed int64, session int) {
	p.idSeed, p.idSession, p.hasIdentity = seed, session, true
}

// HasStreamIdentity reports whether a stream identity was recorded —
// the precondition for epoch-seeded mask streams, and therefore for
// bit-exact checkpoint resume.
func (p *Peer) HasStreamIdentity() bool { return p.hasIdentity }

// SeedEpoch re-derives this peer's mask RNG stream for the given epoch from
// the recorded stream identity — the Calvin-style discipline that makes
// mid-run recovery cheap: the trainer calls it at *every* epoch boundary, so
// the mask stream at epoch e is a pure function of (seed, session, role, e)
// and a resumed run rejoins the uninterrupted run's trajectory bit-exactly.
// A peer without a recorded identity (hand-assembled benches) keeps its
// continuous stream; SeedEpoch is then a no-op.
func (p *Peer) SeedEpoch(epoch int) {
	if !p.hasIdentity {
		return
	}
	p.Rng = epochRNG(p.idSeed, p.idSession, p.Role, epoch)
}

// NewPeer assembles a Peer. Call Handshake before running any protocol to
// exchange public keys (unless PeerPK is set by other means).
//
// The connection is wrapped in a transport.StreamConn (idempotently), so
// every protocol session gets the stream NACK/resend recovery: a corrupt,
// dropped, duplicated or reordered chunk is re-requested once from the
// sender's retained copy before the session aborts with a typed error.
func NewPeer(role Role, conn transport.Conn, sk *paillier.PrivateKey, rng *rand.Rand) *Peer {
	return &Peer{Role: role, Conn: transport.NewStreamConn(conn), SK: sk, Rng: rng, MaskMag: DefaultMaskMag, span: DefaultChunkRows}
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

// HandshakeWithin is Handshake under a bounded setup deadline: on expiry the
// connection is closed (unblocking the exchange) and the result is a typed
// transport.ErrTimeout. d ≤ 0 means no deadline.
func (p *Peer) HandshakeWithin(d time.Duration) error {
	return Within(d, func() {
		//blindfl:allow teardown deadline expiry: closing unblocks the handshake goroutine
		p.Conn.Close()
	}, p.Handshake)
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
// waits for op to return, and reports a typed transport.ErrTimeout. The
// generic bounded-setup primitive behind HandshakeWithin and the serve CLI's
// session-setup deadline.
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

// protoErr carries a protocol failure through panic/recover inside Run.
type protoErr struct{ err error }

// Run executes f, converting Peer helper panics into an error.
func (p *Peer) Run(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(protoErr); ok {
				err = fmt.Errorf("%s: %w", p.Role, pe.err)
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

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

// Pipe wires two in-process peers together: it generates (or reuses) key
// pairs, connects them over a buffered channel transport, and completes the
// handshake. Intended for tests, benchmarks and single-binary simulation.
func Pipe(skA, skB *paillier.PrivateKey, seed int64) (*Peer, *Peer, error) {
	ca, cb := transport.Pair(4096)
	return PipeOn(ca, cb, skA, skB, seed)
}

// PipeOn is Pipe over caller-supplied connections (a counted pair, a
// simulated-WAN pair, an established TCP session): it builds the two peers
// and completes the handshake concurrently. Mask/init RNG streams are
// derived per (seed, session 0, role) — see sessionRNG — so a two-party pipe
// is exactly session 0 of a group, and pipes built from nearby seeds never
// share streams (the old seed/seed+1 scheme made session i's Party B draw
// session i+1's Party A masks when callers seeded adjacent sessions with
// consecutive values).
func PipeOn(ca, cb transport.Conn, skA, skB *paillier.PrivateKey, seed int64) (*Peer, *Peer, error) {
	a := NewPeer(PartyA, ca, skA, sessionRNG(seed, 0, PartyA))
	b := NewPeer(PartyB, cb, skB, sessionRNG(seed, 0, PartyB))
	a.SetStreamIdentity(seed, 0)
	b.SetStreamIdentity(seed, 0)
	errs := make(chan error, 2)
	go func() { errs <- a.Handshake() }()
	go func() { errs <- b.Handshake() }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			return nil, nil, err
		}
	}
	return a, b, nil
}

// RunParties executes both party functions concurrently and returns the
// first error (or nil). It is the standard way to drive a whole protocol in
// one process.
//
// When one party fails, the other is usually blocked in Recv waiting for a
// message that will never come; RunParties closes both connections on the
// first error so the survivor unblocks with transport.ErrClosed instead of
// hanging forever. The session is not reusable after a failed run.
func RunParties(a, b *Peer, fa, fb func()) error {
	errs := make(chan error, 2)
	go func() { errs <- a.Run(fa) }()
	go func() { errs <- b.Run(fb) }()
	var first error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
			a.Conn.Close()
			b.Conn.Close()
		}
	}
	return first
}
