package paillier

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

// randSigned draws a signed scalar with a magnitude of up to bits bits.
func randSigned(rng *mrand.Rand, bits int) *big.Int {
	k := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if rng.Intn(2) == 0 {
		k.Neg(k)
	}
	return k
}

// toSignedExp converts a signed big.Int to signed-magnitude form.
func toSignedExp(k *big.Int) SignedExp {
	mag := new(big.Int).Abs(k)
	return SignedExp{Mag: mag, Neg: k.Sign() < 0}
}

// TestMulPlainSignedMatchesTextbook cross-checks the signed small-exponent
// path against MulPlain over random mixed-sign scalars: the ciphertexts
// differ as group elements, the decryptions must agree bit-exactly.
func TestMulPlainSignedMatchesTextbook(t *testing.T) {
	k := testKey
	rng := mrand.New(mrand.NewSource(7))
	c := encT(t, &k.PublicKey, big.NewInt(123456789))
	for i := 0; i < 25; i++ {
		s := randSigned(rng, 48)
		want := k.Decrypt(k.PublicKey.MulPlain(c, s))
		e := toSignedExp(s)
		got := k.Decrypt(k.PublicKey.MulPlainSigned(c, e.Mag, e.Neg))
		if got.Cmp(want) != 0 {
			t.Fatalf("scalar %v: signed path decrypts to %v, textbook to %v", s, got, want)
		}
	}
}

func TestMulPlainSignedZero(t *testing.T) {
	k := testKey
	c := encT(t, &k.PublicKey, big.NewInt(42))
	for _, e := range []SignedExp{{}, {Mag: big.NewInt(0)}, {Mag: big.NewInt(0), Neg: true}} {
		got := k.Decrypt(k.PublicKey.MulPlainSigned(c, e.Mag, e.Neg))
		if got.Sign() != 0 {
			t.Fatalf("0·c decrypts to %v", got)
		}
	}
}

// dotTextbook is the reference implementation: Σ AddCipher(MulPlain(cᵢ, kᵢ))
// with full-width ring-reduced exponents.
func dotTextbook(pk *PublicKey, cs []*Ciphertext, ks []*big.Int) *Ciphertext {
	acc := &Ciphertext{C: big.NewInt(1)}
	for i := range cs {
		acc = pk.AddCipher(acc, pk.MulPlain(cs[i], ks[i]))
	}
	return acc
}

// TestDotRowMatchesTextbook cross-checks the Straus kernel against the
// per-term textbook loop over random rows with mixed-sign, mixed-magnitude
// exponents (including all-negative, all-zero and singleton rows).
func TestDotRowMatchesTextbook(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := mrand.New(mrand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		cs := make([]*Ciphertext, n)
		ks := make([]*big.Int, n)
		es := make([]SignedExp, n)
		for i := range cs {
			cs[i] = encT(t, pk, big.NewInt(int64(rng.Intn(1<<30))))
			switch trial % 4 {
			case 0: // mixed signs
				ks[i] = randSigned(rng, 45)
			case 1: // all negative
				ks[i] = new(big.Int).Neg(new(big.Int).Rand(rng, big.NewInt(1<<40)))
			case 2: // sparse: mostly zero
				if rng.Intn(3) == 0 {
					ks[i] = randSigned(rng, 45)
				} else {
					ks[i] = big.NewInt(0)
				}
			default: // tiny magnitudes stress window edge cases
				ks[i] = big.NewInt(int64(rng.Intn(7) - 3))
			}
			es[i] = toSignedExp(ks[i])
		}
		want := k.Decrypt(dotTextbook(pk, cs, ks))
		got := k.Decrypt(pk.DotRow(cs, es))
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: DotRow decrypts to %v, textbook to %v", trial, got, want)
		}
	}
}

func TestDotRowAllZero(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	cs := []*Ciphertext{encT(t, pk, big.NewInt(5)), encT(t, pk, big.NewInt(9))}
	es := []SignedExp{{}, {Mag: big.NewInt(0), Neg: true}}
	if got := k.Decrypt(pk.DotRow(cs, es)); got.Sign() != 0 {
		t.Fatalf("all-zero DotRow decrypts to %v", got)
	}
}

// TestDotTablesReuse checks that one PrecomputeDot table set evaluates many
// exponent vectors correctly (the matmul batch-row reuse pattern), across
// every supported window width.
func TestDotTablesReuse(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := mrand.New(mrand.NewSource(13))
	n := 6
	cs := make([]*Ciphertext, n)
	for i := range cs {
		cs[i] = encT(t, pk, big.NewInt(int64(rng.Intn(1<<20))))
	}
	for w := uint(1); w <= 6; w++ {
		tabs := pk.PrecomputeDot(cs, w)
		for trial := 0; trial < 4; trial++ {
			ks := make([]*big.Int, n)
			es := make([]SignedExp, n)
			for i := range ks {
				ks[i] = randSigned(rng, 45)
				es[i] = toSignedExp(ks[i])
			}
			want := k.Decrypt(dotTextbook(pk, cs, ks))
			got := k.Decrypt(tabs.Dot(es))
			if got.Cmp(want) != 0 {
				t.Fatalf("window %d trial %d: Dot decrypts to %v, want %v", w, trial, got, want)
			}
		}
	}
}

// FuzzMulPlainSigned fuzzes the signed fast path against the textbook one
// with int64 scalars on a fixed ciphertext.
func FuzzMulPlainSigned(f *testing.F) {
	f.Add(int64(0), int64(1))
	f.Add(int64(-1), int64(123))
	f.Add(int64(1<<40), int64(-(1 << 40)))
	k := testKey
	c, err := k.PublicKey.Encrypt(rand.Reader, big.NewInt(987654321))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, s, m int64) {
		for _, v := range []int64{s, m} {
			sc := big.NewInt(v)
			want := k.Decrypt(k.PublicKey.MulPlain(c, sc))
			e := toSignedExp(sc)
			got := k.Decrypt(k.PublicKey.MulPlainSigned(c, e.Mag, e.Neg))
			if got.Cmp(want) != 0 {
				t.Fatalf("scalar %d: signed %v != textbook %v", v, got, want)
			}
		}
	})
}

// TestNegCorruptedPanics is the regression test for the nil-ModInverse bug:
// a ciphertext sharing a factor with N is not invertible, and Neg used to
// return a Ciphertext wrapping a nil big.Int that exploded much later.
func TestNegCorruptedPanics(t *testing.T) {
	k := testKey
	// N² shares every factor with N; any multiple of p does too. Use N itself.
	corrupted := &Ciphertext{C: new(big.Int).Set(k.N)}
	assertPanics(t, "Neg(corrupted)", func() { k.PublicKey.Neg(corrupted) })
	assertPanics(t, "Neg(nil value)", func() { k.PublicKey.Neg(&Ciphertext{}) })
}

func TestAddPlainCorruptedPanics(t *testing.T) {
	k := testKey
	assertPanics(t, "AddPlain(nil value)", func() {
		k.PublicKey.AddPlain(&Ciphertext{}, big.NewInt(1))
	})
}

func TestMulPlainSignedCorruptedPanics(t *testing.T) {
	k := testKey
	corrupted := &Ciphertext{C: new(big.Int).Set(k.N)}
	assertPanics(t, "MulPlainSigned(corrupted, -1)", func() {
		k.PublicKey.MulPlainSigned(corrupted, big.NewInt(1), true)
	})
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// TestDecryptTextbookCached checks the keygen-cached λ/µ textbook decryption
// against the CRT path (the ablation benchmark depends on both agreeing).
func TestDecryptTextbookCached(t *testing.T) {
	k := testKey
	rng := mrand.New(mrand.NewSource(17))
	for i := 0; i < 10; i++ {
		m := new(big.Int).Rand(rng, k.N)
		c := encT(t, &k.PublicKey, m)
		if got := k.DecryptTextbook(c); got.Cmp(m) != 0 {
			t.Fatalf("DecryptTextbook = %v, want %v", got, m)
		}
		if crt, tb := k.Decrypt(c), k.DecryptTextbook(c); crt.Cmp(tb) != 0 {
			t.Fatalf("CRT %v != textbook %v", crt, tb)
		}
	}
}

// TestPoolShortExp checks that short-exponent blindings produce valid
// encryptions: pooled ciphertexts decrypt to their plaintexts, and the pool
// serves from the buffer (hits, not misses) like the classic pool.
func TestPoolShortExp(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 8, 1, rand.Reader, WithShortExp(0))
	defer p.Close()
	p.WaitAvailable(4)
	for i := int64(0); i < 8; i++ {
		m := big.NewInt(1000 + i)
		c, err := p.Enc(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Decrypt(c); got.Cmp(m) != 0 {
			t.Fatalf("short-exp pooled Enc(%v) decrypts to %v", m, got)
		}
	}
	if s := p.Stats(); s.Hits == 0 {
		t.Fatalf("short-exp pool served no hits: %+v", s)
	}
}

// TestPoolShortExpInlineFallback drains the pool and checks the inline
// fallback also uses (and correctly applies) the short-exponent blinding.
func TestPoolShortExpInlineFallback(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 1, 1, rand.Reader, WithShortExp(256))
	p.Close() // stop refills; buffer drains after one hit
	for i := int64(0); i < 3; i++ {
		m := big.NewInt(77 + i)
		c, err := p.Enc(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Decrypt(c); got.Cmp(m) != 0 {
			t.Fatalf("inline short-exp Enc(%v) decrypts to %v", m, got)
		}
	}
}

// TestPoolShortExpBlindingsDiffer guards against a degenerate α sequence:
// two encryptions of the same plaintext must yield distinct ciphertexts.
func TestPoolShortExpBlindingsDiffer(t *testing.T) {
	k := testKey
	p := NewPool(&k.PublicKey, 4, 1, rand.Reader, WithShortExp(0))
	defer p.Close()
	p.WaitAvailable(2)
	m := big.NewInt(5)
	c1, err := p.Enc(m)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Enc(m)
	if err != nil {
		t.Fatal(err)
	}
	if c1.C.Cmp(c2.C) == 0 {
		t.Fatal("two short-exp encryptions of the same plaintext are identical")
	}
}

func BenchmarkMulPlainNegTextbook(b *testing.B) {
	k := testKey
	c, err := k.PublicKey.Encrypt(rand.Reader, big.NewInt(12345))
	if err != nil {
		b.Fatal(err)
	}
	s := big.NewInt(-(1 << 44))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PublicKey.MulPlain(c, s)
	}
}

func BenchmarkMulPlainNegSigned(b *testing.B) {
	k := testKey
	c, err := k.PublicKey.Encrypt(rand.Reader, big.NewInt(12345))
	if err != nil {
		b.Fatal(err)
	}
	mag := big.NewInt(1 << 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PublicKey.MulPlainSigned(c, mag, true)
	}
}

func benchDotRow(b *testing.B, straus bool) {
	k := testKey
	pk := &k.PublicKey
	rng := mrand.New(mrand.NewSource(3))
	n := 16
	cs := make([]*Ciphertext, n)
	ks := make([]*big.Int, n)
	es := make([]SignedExp, n)
	for i := range cs {
		c, err := pk.Encrypt(rand.Reader, big.NewInt(int64(rng.Intn(1<<30))))
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = c
		ks[i] = randSigned(rng, 45)
		es[i] = toSignedExp(ks[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if straus {
			pk.DotRow(cs, es)
		} else {
			dotTextbook(pk, cs, ks)
		}
	}
}

func BenchmarkDotRow16Textbook(b *testing.B) { benchDotRow(b, false) }
func BenchmarkDotRow16Straus(b *testing.B)   { benchDotRow(b, true) }

func BenchmarkPoolRefillFullWidth(b *testing.B) {
	k := testKey
	p := &Pool{pk: &k.PublicKey, random: rand.Reader}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.blindingFactor(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolRefillShortExp(b *testing.B) {
	k := testKey
	p := NewPool(&k.PublicKey, 1, 1, rand.Reader, WithShortExp(0))
	p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.blindingFactor(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPackLanesMatchesExp: the Horner packing is Π cs[l]^(2^(l·w)) mod N²,
// residue for residue, whatever the lane count and width.
func TestPackLanesMatchesExp(t *testing.T) {
	pk := &testKey.PublicKey
	for _, c := range [][2]int{{1, 7}, {2, 1}, {3, 64}, {5, 97}} {
		lanes, w := c[0], uint(c[1])
		cs := make([]*Ciphertext, lanes)
		want := big.NewInt(1)
		for l := range cs {
			cs[l] = encT(t, pk, big.NewInt(int64(1000+l)))
			e := new(big.Int).Lsh(one, uint(l)*w)
			want.Mul(want, e.Exp(cs[l].C, e, pk.N2)).Mod(want, pk.N2)
		}
		if got := pk.PackLanes(cs, w).C; got.Cmp(want) != 0 {
			t.Fatalf("%d lanes of %d bits: PackLanes is not the reference residue", lanes, w)
		}
	}
}

// TestAllUnits: honest ciphertexts pass; a multiple of p, of q or of N at any
// position — the whole point of folding before the one GCD — does not.
func TestAllUnits(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	cs := make([]*Ciphertext, 9)
	for i := range cs {
		cs[i] = encT(t, pk, big.NewInt(int64(i)))
	}
	if !pk.AllUnits(cs) || !pk.AllUnits(nil) {
		t.Fatal("honest ciphertexts refused")
	}
	for _, f := range []*big.Int{k.p, k.q, k.N} {
		for _, at := range []int{0, 4, len(cs) - 1} {
			honest := cs[at]
			bad := new(big.Int).Mul(f, big.NewInt(12345))
			cs[at] = &Ciphertext{C: bad.Add(bad, new(big.Int).Mul(f, k.N))} // above N: exercises the reduction
			if pk.AllUnits(cs) {
				t.Fatalf("a multiple of %v at %d passed as a unit", f, at)
			}
			cs[at] = honest
		}
	}
}
