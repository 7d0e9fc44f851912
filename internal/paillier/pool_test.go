package paillier

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"time"
)

func TestPoolEncDecryptRoundTrip(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 8, 2, rand.Reader)
	defer p.Close()
	for _, v := range []int64{0, 1, 42, 1 << 40} {
		m := big.NewInt(v)
		c, err := p.Enc(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Decrypt(c); got.Cmp(m) != 0 {
			t.Fatalf("Dec(PoolEnc(%d)) = %v", v, got)
		}
	}
}

func TestPoolEncRejectsOutOfRange(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 2, 1, rand.Reader)
	defer p.Close()
	if _, err := p.Enc(big.NewInt(-1)); err == nil {
		t.Fatal("accepted negative plaintext")
	}
	if _, err := p.Enc(new(big.Int).Set(k.N)); err == nil {
		t.Fatal("accepted plaintext == N")
	}
}

// TestPoolDrainAndRefill exhausts the buffer faster than one worker can
// refill it; every encryption must stay correct through the drained phase,
// and the miss counter must record the fallbacks.
func TestPoolDrainAndRefill(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 2, 1, rand.Reader)
	defer p.Close()
	m := big.NewInt(7)
	for i := 0; i < 40; i++ {
		c, err := p.Enc(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Decrypt(c); got.Cmp(m) != 0 {
			t.Fatalf("iteration %d: wrong decryption %v", i, got)
		}
	}
	s := p.Stats()
	if s.Hits+s.Misses != 40 {
		t.Fatalf("hits %d + misses %d != 40", s.Hits, s.Misses)
	}
}

func TestPoolConcurrentEnc(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 16, 4, rand.Reader)
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				m := big.NewInt(int64(g*100 + i))
				c, err := p.Enc(m)
				if err != nil {
					errs <- err
					return
				}
				if got := k.Decrypt(c); got.Cmp(m) != 0 {
					errs <- errMismatch(m, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{ want, got *big.Int }

func errMismatch(want, got *big.Int) error { return mismatchError{want, got} }
func (e mismatchError) Error() string {
	return "decrypt mismatch: want " + e.want.String() + " got " + e.got.String()
}

// TestPoolDeterministicReader checks reproducibility: two single-worker pools
// fed the same deterministic reader must produce identical ciphertexts for
// identical plaintexts.
func TestPoolDeterministicReader(t *testing.T) {
	k := testKey
	enc := func(seed int64) []*big.Int {
		p := NewPool(&k.PublicKey, 4, 1, mrand.New(mrand.NewSource(seed)))
		defer p.Close()
		var out []*big.Int
		for i := 0; i < 12; i++ { // exceeds capacity: refills must keep the draw order
			p.WaitAvailable(1) // never fall back: pooled draws are strictly FIFO
			c, err := p.Enc(big.NewInt(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c.C)
		}
		return out
	}
	a, b := enc(99), enc(99)
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			t.Fatalf("ciphertext %d differs between identically seeded pools", i)
		}
	}
	c := enc(100)
	same := true
	for i := range a {
		if a[i].Cmp(c[i]) != 0 {
			same = false
		}
	}
	if same {
		t.Fatal("differently seeded pools produced identical ciphertexts")
	}
}

func TestPoolRegistry(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	if PoolFor(pk) != nil {
		t.Fatal("unexpected pre-registered pool")
	}
	p := NewPool(pk, 4, 1, rand.Reader)
	defer p.Close()
	RegisterPool(p)
	defer UnregisterPool(pk)
	// A distinct PublicKey allocation with the same modulus must resolve.
	alias := &PublicKey{N: new(big.Int).Set(pk.N), N2: new(big.Int).Set(pk.N2)}
	if PoolFor(alias) != p {
		t.Fatal("registry did not resolve an aliased public key")
	}
	m := big.NewInt(123)
	c, err := EncryptPooled(alias, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Decrypt(c); got.Cmp(m) != 0 {
		t.Fatalf("EncryptPooled round trip = %v", got)
	}
	UnregisterPool(pk)
	if PoolFor(pk) != nil {
		t.Fatal("pool still registered after UnregisterPool")
	}
	// Unregistered path must still encrypt (plain fallback).
	c2, err := EncryptPooled(pk, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Decrypt(c2); got.Cmp(m) != 0 {
		t.Fatalf("fallback round trip = %v", got)
	}
}

func cap64(n int) int {
	if n > 64 {
		return 64
	}
	return n
}

func BenchmarkEncrypt(b *testing.B) {
	k := testKey
	m := big.NewInt(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.PublicKey.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolEnc measures the fast path with a warm pool: the critical-path
// cost per encryption is two multiplications instead of an N-bit
// exponentiation. Refills run outside the timer, modelling precompute that
// overlaps communication and plaintext phases. Note: on a single-core
// machine the scheduler may still interleave refill exponentiations into the
// timed window (throughput there is work-conserving either way); the
// full benefit shows on multicore or latency-bound paths.
func BenchmarkPoolEnc(b *testing.B) {
	k := testKey
	p := NewPool(&k.PublicKey, 64, 0, rand.Reader)
	defer p.Close()
	m := big.NewInt(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p.WaitAvailable(cap64(b.N - i))
		b.StartTimer()
		if _, err := p.Enc(m); err != nil {
			b.Fatal(err)
		}
	}
}

// errReader always fails, simulating a broken randomness source.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errMismatch(one, one) }

// TestPoolLostSurfaced: a pool with a broken randomness source loses every
// slot; the Lost counter must record it and WaitAvailable must return (the
// reachable fill level collapses to zero) instead of waiting forever.
func TestPoolLostSurfaced(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 4, 2, errReader{})
	defer p.Close()
	p.WaitAvailable(4) // must unblock as the lost count grows, not hang
	// All refills eventually fail; WaitAvailable returning doesn't guarantee
	// every worker has recorded its loss yet, so wait for the full count.
	for p.Stats().Lost < 4 {
		p.WaitAvailable(4)
	}
	s := p.Stats()
	if s.Lost != 4 || s.Available != 0 {
		t.Fatalf("stats = %+v, want 4 lost / 0 available", s)
	}
}

// TestPoolCloseWakesWaiter: a waiter parked in WaitAvailable while the pool
// is being closed must always wake — the in-flight refills it is counting on
// either land in the buffer or are marked Lost, each with a broadcast.
// Drains before closing so the waiter genuinely parks on in-flight slots.
func TestPoolCloseWakesWaiter(t *testing.T) {
	k := testKey
	for round := 0; round < 8; round++ {
		p := NewPool(&k.PublicKey, 4, 2, rand.Reader)
		// Drain whatever is buffered so WaitAvailable(4) has to park while
		// replacement refills are still in flight.
		for i := 0; i < 4; i++ {
			if _, err := p.Enc(big.NewInt(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		released := make(chan struct{})
		go func() {
			p.WaitAvailable(4)
			close(released)
		}()
		p.Close()
		select {
		case <-released:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: WaitAvailable still parked after Close", round)
		}
		s := p.Stats()
		if s.Available+int(s.Lost) < 4 {
			t.Fatalf("round %d: %d available + %d lost < capacity 4: a slot vanished without being buffered or marked Lost", round, s.Available, s.Lost)
		}
	}
}

// TestPoolDrainAfterCloseMarksSlotsLost: taking buffered factors after Close
// cannot resubmit refills; every such slot must surface in the Lost counter
// so WaitAvailable's reachable-fill cap collapses and callers never park on
// slots that will not come back.
func TestPoolDrainAfterCloseMarksSlotsLost(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 3, 1, rand.Reader)
	p.WaitAvailable(3)
	p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.Enc(big.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Lost != 3 || s.Available != 0 {
		t.Fatalf("stats after drain-past-close = %+v, want 3 lost / 0 available", s)
	}
	finished := make(chan struct{})
	go func() {
		p.WaitAvailable(1) // reachable cap is 0: must return immediately
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("WaitAvailable parked on a fully lost pool")
	}
}

// TestPoolShortExpFixedBaseExact: with the same deterministic reader, the
// comb-table refill path must produce bit-identical blindings (and therefore
// ciphertexts) to the big.Int.Exp refill path it replaces.
func TestPoolShortExpFixedBaseExact(t *testing.T) {
	k := testKey
	enc := func(fixedBase bool) []*big.Int {
		p := NewPool(&k.PublicKey, 4, 1, mrand.New(mrand.NewSource(5)),
			WithShortExp(64), WithFixedBase(fixedBase, 0))
		defer p.Close()
		var out []*big.Int
		for i := 0; i < 10; i++ {
			p.WaitAvailable(1)
			c, err := p.Enc(big.NewInt(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if got := k.Decrypt(c); got.Cmp(big.NewInt(int64(i))) != 0 {
				t.Fatalf("round trip %d = %v", i, got)
			}
			out = append(out, c.C)
		}
		return out
	}
	plain, comb := enc(false), enc(true)
	for i := range plain {
		if plain[i].Cmp(comb[i]) != 0 {
			t.Fatalf("ciphertext %d differs between big.Int.Exp and fixed-base refills", i)
		}
	}
}

// BenchmarkPoolLookupStringKey measures the pre-fix registry keying: a
// decimal conversion of the whole modulus on every lookup.
func BenchmarkPoolLookupStringKey(b *testing.B) {
	k := testKey
	pk := &k.PublicKey
	var reg sync.Map
	reg.Store(pk.N.String(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := reg.Load(pk.N.String()); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkPoolLookupFingerprint measures the fingerprint keying PoolFor
// uses now: an O(1) limb mix plus one modulus comparison on the hit.
func BenchmarkPoolLookupFingerprint(b *testing.B) {
	k := testKey
	pk := &k.PublicKey
	p := NewPool(pk, 1, 1, rand.Reader)
	defer p.Close()
	RegisterPool(p)
	defer UnregisterPool(pk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if PoolFor(pk) == nil {
			b.Fatal("lookup failed")
		}
	}
}

// TestPoolShortExpMatchesFormula pins what a short-exponent pool emits to the
// formula, computed with nothing but big.Int.Exp: replaying the deterministic
// reader's draws — y for h = −y² mod N, then one α per blinding in FIFO order
// (workers = 1) — every ciphertext is (1 + mN)·(hⁿ)^α mod N², byte for byte.
func TestPoolShortExpMatchesFormula(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	const bits, n = 96, 9
	p := NewPool(pk, 4, 1, mrand.New(mrand.NewSource(17)), WithShortExp(bits))
	defer p.Close()

	replay := mrand.New(mrand.NewSource(17))
	y, err := randUnit(replay, pk.N)
	if err != nil {
		t.Fatal(err)
	}
	h := new(big.Int).Mul(y, y)
	hn := h.Exp(h.Neg(h).Mod(h, pk.N), pk.N, pk.N2)
	alphaMax := new(big.Int).Lsh(one, bits)
	for i := 0; i < n; i++ {
		p.WaitAvailable(1)
		c, err := p.Enc(big.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := rand.Int(replay, alphaMax)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Exp(hn, alpha.Add(alpha, one), pk.N2)
		gm := new(big.Int).Mul(big.NewInt(int64(i)), pk.N)
		want.Mul(want, gm.Add(gm, one)).Mod(want, pk.N2)
		if !bytes.Equal(c.C.Bytes(), want.Bytes()) {
			t.Fatalf("ciphertext %d is not (1 + mN)·(hⁿ)^α mod N²", i)
		}
	}
}
