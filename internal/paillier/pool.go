package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"blindfl/internal/parallel"
)

// Encryption cost is dominated by the blinding exponentiation r^N mod N²,
// which depends only on the public key — not on the plaintext. A Pool
// precomputes blinding factors in background workers so that the latency of
// Enc on the protocol's critical path collapses to two multiplications, and
// otherwise-idle cores are put to work between protocol rounds.

// Pool precomputes Paillier blinding factors r^N mod N² for one public key.
type Pool struct {
	pk      *PublicKey
	buf     chan *big.Int
	workers *parallel.Workers

	// rmu serializes draws from random so that a deterministic reader yields
	// a reproducible sequence of blinding bases (exponentiation, the costly
	// part, still runs concurrently).
	rmu    sync.Mutex
	random io.Reader

	// Short-exponent blinding (WithShortExp): refills draw (hⁿ)^α for a
	// fresh shortBits-bit α instead of r^N for a full-width r.
	shortBits int
	hn        *big.Int // h^N mod N², precomputed once per key
	alphaMax  *big.Int // 2^shortBits, the exclusive draw bound for α

	// Fixed-base comb acceleration for the constant short-exponent base hⁿ
	// (on by default with WithShortExp; WithFixedBase(false) ablates it).
	fixedBase bool
	fbBudget  int64
	fb        *FixedBase

	// availMu/availCond wake WaitAvailable callers on every refill landing
	// or slot loss, replacing the previous 50 µs sleep-poll loop.
	availMu   sync.Mutex
	availCond *sync.Cond

	hits   atomic.Int64
	misses atomic.Int64
	lost   atomic.Int64 // slots permanently dropped (reader error, closed workers)
}

// PoolStats reports pool effectiveness counters.
type PoolStats struct {
	Hits      int64 // encryptions served from precomputed blindings
	Misses    int64 // encryptions that fell back to inline exponentiation
	Lost      int64 // slots permanently dropped (reader error, closed workers)
	Available int   // blindings currently buffered
}

// DefaultShortExpBits is the α width WithShortExp(0) selects: comfortably
// above twice any plausible statistical security target, yet ~5× shorter
// than a 2048-bit modulus, making each refill exponentiation ~5× cheaper.
const DefaultShortExpBits = 400

// PoolOption configures optional Pool behaviour at construction.
type PoolOption func(*Pool)

// WithShortExp switches the pool to Damgård–Jurik–Nielsen-style
// short-exponent blinding (DJN '10, §4.2): at construction the pool
// precomputes hⁿ = h^N mod N² for h = −y² mod N (a random element of the
// subgroup of quadratic residues with Jacobi symbol +1), and each refill
// draws a fresh α of the given bit width and buffers (hⁿ)^α — a ~bits-bit
// exponentiation instead of a full N-bit one. Ciphertext indistinguishability
// then rests on the DJN subgroup assumption rather than Decisional Composite
// Residuosity alone; the classic full-width path (no option) remains the
// default. bits <= 0 selects DefaultShortExpBits.
func WithShortExp(bits int) PoolOption {
	if bits <= 0 {
		bits = DefaultShortExpBits
	}
	return func(p *Pool) { p.shortBits = bits }
}

// WithFixedBase toggles the Lim–Lee comb tables for the short-exponent base
// hⁿ. On by default: a short-exp refill then costs ~bits/8 multiplications
// with no squarings instead of a ~bits-bit square-and-multiply. Pass false
// for the ablation baseline (PR 3's plain big.Int.Exp refill). budget caps
// the comb table bytes; <= 0 selects DefaultFixedBaseBudget. No effect
// without WithShortExp.
func WithFixedBase(on bool, budget int64) PoolOption {
	return func(p *Pool) { p.fixedBase = on; p.fbBudget = budget }
}

// NewPool starts a blinding-factor pool for pk holding up to capacity
// precomputed factors, refilled by the given number of background workers
// (GOMAXPROCS if workers <= 0). random is the randomness source; pass a
// deterministic reader in tests for reproducible blindings (with workers=1
// the buffered order is deterministic too). Close the pool when done.
func NewPool(pk *PublicKey, capacity, workers int, random io.Reader, opts ...PoolOption) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	p := &Pool{
		pk:        pk,
		buf:       make(chan *big.Int, capacity),
		workers:   parallel.NewWorkers(workers, capacity),
		random:    random,
		fixedBase: true,
	}
	p.availCond = sync.NewCond(&p.availMu)
	for _, o := range opts {
		o(p)
	}
	if p.shortBits > 0 {
		// One-time per-key setup: h = −y² mod N for random y, hⁿ = h^N mod N²,
		// and the comb tables that turn every later (hⁿ)^α refill into ~bits/8 multiplications.
		y, err := randUnit(random, pk.N)
		if err != nil {
			panic(fmt.Sprintf("paillier: pool short-exp setup: %v", err))
		}
		h := new(big.Int).Mul(y, y)
		h.Neg(h).Mod(h, pk.N)
		p.hn = h.Exp(h, pk.N, pk.N2)
		p.alphaMax = new(big.Int).Lsh(one, uint(p.shortBits))
		if p.fixedBase {
			p.fb = NewFixedBase(p.hn, pk.N, p.shortBits+1, p.fbBudget)
		}
	}
	for i := 0; i < capacity; i++ {
		p.workers.Submit(p.refill)
	}
	return p
}

// blindingFactor computes one blinding factor: (hⁿ)^α for a fresh short α on
// the short-exponent path, r^N for a fresh full-width r otherwise.
func (p *Pool) blindingFactor() (*big.Int, error) {
	if p.shortBits > 0 {
		p.rmu.Lock()
		alpha, err := rand.Int(p.random, p.alphaMax)
		p.rmu.Unlock()
		if err != nil {
			return nil, err
		}
		alpha.Add(alpha, one) // α ∈ [1, 2^bits]: never an unblinded factor of 1
		if p.fb != nil {
			return p.fb.Exp(alpha), nil
		}
		return new(big.Int).Exp(p.hn, alpha, p.pk.N2), nil
	}
	p.rmu.Lock()
	r, err := randUnit(p.random, p.pk.N)
	p.rmu.Unlock()
	if err != nil {
		return nil, err
	}
	return new(big.Int).Exp(r, p.pk.N, p.pk.N2), nil
}

// signalAvail wakes WaitAvailable callers after a refill lands or a slot is
// lost. The lock pairs with the condition re-check in WaitAvailable so a
// wakeup between check and Wait is never missed.
func (p *Pool) signalAvail() {
	p.availMu.Lock()
	p.availCond.Broadcast()
	p.availMu.Unlock()
}

// refill computes one blinding factor and buffers it. One refill job is in
// flight (queued, running, or buffered) per pool slot, so the buffered send
// cannot block indefinitely.
func (p *Pool) refill() {
	rn, err := p.blindingFactor()
	if err != nil {
		p.lost.Add(1) // degrade: the slot is lost, Enc falls back inline
		p.signalAvail()
		return
	}
	p.buf <- rn
	p.signalAvail()
}

// blinding returns a precomputed factor, or nil if the pool is drained.
// Taking a factor schedules its replacement.
func (p *Pool) blinding() *big.Int {
	select {
	case rn := <-p.buf:
		p.hits.Add(1)
		if !p.workers.Submit(p.refill) {
			p.lost.Add(1) // workers closed: the slot will never refill
			p.signalAvail()
		}
		return rn
	default:
		p.misses.Add(1)
		return nil
	}
}

// Enc encrypts m ∈ Z_N like PublicKey.Encrypt but takes the blinding factor
// from the pool when one is available, falling back to an inline
// exponentiation when drained.
func (p *Pool) Enc(m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(p.pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of Z_N range")
	}
	rn := p.blinding()
	if rn == nil {
		var err error
		if rn, err = p.blindingFactor(); err != nil {
			return nil, err
		}
	}
	gm := new(big.Int).Mul(m, p.pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, p.pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, p.pk.N2)
	return &Ciphertext{C: c}, nil
}

// Stats returns effectiveness counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Hits: p.hits.Load(), Misses: p.misses.Load(), Lost: p.lost.Load(), Available: len(p.buf)}
}

// WaitAvailable blocks until at least n blinding factors are buffered,
// capped at the fill level still reachable (capacity minus permanently lost
// slots — reader errors, closed workers — so it cannot wait forever on a
// degraded or closed pool). The wait parks on a condition variable signalled
// by every refill landing or slot loss, instead of the earlier 50 µs
// sleep-poll loop. With workers=1 and a sequential consumer that calls
// WaitAvailable(1) before each Enc, every encryption is served from the pool
// in FIFO draw order, so a deterministic reader yields fully reproducible
// ciphertexts — the mode the test suite uses.
//
// Liveness against Close (audited for the k-session group runtime, which
// closes per-party pools while group sessions may still be parked here):
// every slot is always in exactly one of three states — buffered (len(buf)),
// permanently lost (lost), or in flight (queued/running refill job, or taken
// in blinding() before its replacement is submitted). NewPool starts every
// slot in flight; refill moves in-flight → buffered or in-flight → lost;
// blinding moves buffered → in-flight (Submit accepted) or buffered → lost
// (Submit after Close). Both slot-consuming transitions broadcast under
// availMu *after* the state change, and the waiter re-checks under the same
// mutex, so a wakeup cannot be missed. A parked waiter implies
// len(buf) < cap − lost, i.e. at least one slot is in flight — and Close
// drains in-flight jobs rather than dropping them (Workers.Close), so that
// slot's refill-or-loss broadcast is still coming. Hence a waiter racing
// Close always wakes: either the remaining refills land (the buffer reaches
// the target) or their slots are marked Lost (the reachable cap drops to
// meet it). The close-while-waiting regression tests in pool_test.go pin
// this contract.
func (p *Pool) WaitAvailable(n int) {
	p.availMu.Lock()
	defer p.availMu.Unlock()
	for {
		max := cap(p.buf) - int(p.lost.Load())
		target := n
		if target > max {
			target = max
		}
		if len(p.buf) >= target {
			return
		}
		p.availCond.Wait()
	}
}

// Close stops the background workers, waiting for in-flight refills rather
// than dropping them — the property WaitAvailable's liveness argument (see
// its comment) rests on: every slot a parked waiter is counting on either
// lands in the buffer or is marked Lost with a broadcast, never silently
// vanishes. The pool remains usable afterwards (Enc falls back inline once
// the buffer drains; draining a taken slot after Close marks it Lost).
func (p *Pool) Close() { p.workers.Close() }

// poolReg maps a public-key fingerprint (pk.fingerprint(), an O(1) mix of
// modulus limbs and bit length) to its registered pool. The previous keying
// by pk.N.String() performed an O(n²) binary→decimal conversion of the whole
// modulus on *every pooled encryption*; the fingerprint lookup is ~100×
// cheaper at 2048 bits (see BenchmarkPoolLookup). Keys are still compared by
// modulus value on a hit — distinct PublicKey allocations for the same key
// circulate through the protocol layer, and a fingerprint collision must
// degrade to the slow path, not alias another key's pool.
var poolReg sync.Map

// RegisterPool makes p the process-wide pool for its public key, so that
// EncryptPooled (and through it the hetensor encryption paths) transparently
// use the fast path. It replaces any previous registration for the key.
func RegisterPool(p *Pool) { poolReg.Store(p.pk.fingerprint(), p) }

// UnregisterPool removes the registration for pk (the pool is not closed).
func UnregisterPool(pk *PublicKey) {
	if p := PoolFor(pk); p != nil {
		poolReg.Delete(pk.fingerprint())
	}
}

// PoolFor returns the registered pool for pk, or nil.
func PoolFor(pk *PublicKey) *Pool {
	v, ok := poolReg.Load(pk.fingerprint())
	if !ok {
		return nil
	}
	p := v.(*Pool)
	if p.pk.N.Cmp(pk.N) != 0 {
		return nil // fingerprint collision with a different key
	}
	return p
}

// EncryptPooled encrypts m under pk, using the registered blinding pool for
// pk when one exists and package randomness otherwise. This is the entry
// point the vectorized layers use, so enabling a pool accelerates every
// encryption site at once.
func EncryptPooled(pk *PublicKey, m *big.Int) (*Ciphertext, error) {
	if p := PoolFor(pk); p != nil {
		return p.Enc(m)
	}
	return pk.Encrypt(Rand, m)
}
