package paillier

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// testKey is generated once; 512 bits keeps the suite fast while exercising
// the same code paths as production key sizes.
var testKey = mustKey(512)

func mustKey(bits int) *PrivateKey {
	k, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		panic(err)
	}
	return k
}

func encT(t *testing.T, pk *PublicKey, m *big.Int) *Ciphertext {
	t.Helper()
	c, err := pk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k := testKey
	for _, m := range []int64{0, 1, 2, 255, 1 << 40} {
		c := encT(t, &k.PublicKey, big.NewInt(m))
		if got := k.Decrypt(c); got.Int64() != m {
			t.Errorf("Dec(Enc(%d)) = %v", m, got)
		}
	}
}

func TestDecryptLargePlaintext(t *testing.T) {
	k := testKey
	m := new(big.Int).Sub(k.N, big.NewInt(1)) // N−1, the largest plaintext
	c := encT(t, &k.PublicKey, m)
	if got := k.Decrypt(c); got.Cmp(m) != 0 {
		t.Fatalf("Dec(Enc(N−1)) = %v", got)
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	k := testKey
	if _, err := k.Encrypt(rand.Reader, big.NewInt(-1)); err == nil {
		t.Error("negative plaintext accepted")
	}
	if _, err := k.Encrypt(rand.Reader, k.N); err == nil {
		t.Error("plaintext = N accepted")
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	k := testKey
	m := big.NewInt(42)
	c1 := encT(t, &k.PublicKey, m)
	c2 := encT(t, &k.PublicKey, m)
	if c1.C.Cmp(c2.C) == 0 {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
	if k.Decrypt(c1).Int64() != 42 || k.Decrypt(c2).Int64() != 42 {
		t.Fatal("randomized ciphertexts decrypt differently")
	}
}

func TestAddCipher(t *testing.T) {
	k := testKey
	f := func(a, b uint32) bool {
		ca := encT(t, &k.PublicKey, big.NewInt(int64(a)))
		cb := encT(t, &k.PublicKey, big.NewInt(int64(b)))
		sum := k.Decrypt(k.AddCipher(ca, cb))
		return sum.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAddPlain(t *testing.T) {
	k := testKey
	ca := encT(t, &k.PublicKey, big.NewInt(100))
	if got := k.Decrypt(k.AddPlain(ca, big.NewInt(23))); got.Int64() != 123 {
		t.Fatalf("AddPlain = %v", got)
	}
	// Negative plaintext addend wraps through Z_N.
	got := k.Decrypt(k.AddPlain(ca, big.NewInt(-30)))
	if got.Int64() != 70 {
		t.Fatalf("AddPlain(-30) = %v", got)
	}
}

func TestMulPlain(t *testing.T) {
	k := testKey
	ca := encT(t, &k.PublicKey, big.NewInt(7))
	if got := k.Decrypt(k.MulPlain(ca, big.NewInt(6))); got.Int64() != 42 {
		t.Fatalf("MulPlain = %v", got)
	}
	// Negative scalar: result is N − 42 (the ring representation of −42).
	got := k.Decrypt(k.MulPlain(ca, big.NewInt(-6)))
	want := new(big.Int).Sub(k.N, big.NewInt(42))
	if got.Cmp(want) != 0 {
		t.Fatalf("MulPlain(-6) = %v want N−42", got)
	}
}

func TestNeg(t *testing.T) {
	k := testKey
	ca := encT(t, &k.PublicKey, big.NewInt(9))
	got := k.Decrypt(k.Neg(ca))
	want := new(big.Int).Sub(k.N, big.NewInt(9))
	if got.Cmp(want) != 0 {
		t.Fatalf("Neg = %v want N−9", got)
	}
}

func TestHomomorphicDotProduct(t *testing.T) {
	// Σ xᵢ·⟦yᵢ⟧ = ⟦Σ xᵢyᵢ⟧ — the primitive the CryptoTensor matmul uses.
	k := testKey
	rng := mrand.New(mrand.NewSource(7))
	x := make([]int64, 8)
	y := make([]int64, 8)
	var want int64
	acc := encT(t, &k.PublicKey, big.NewInt(0))
	for i := range x {
		x[i] = int64(rng.Intn(1000) - 500)
		y[i] = int64(rng.Intn(1000) - 500)
		want += x[i] * y[i]
		cy := encT(t, &k.PublicKey, new(big.Int).Mod(big.NewInt(y[i]), k.N))
		acc = k.AddCipher(acc, k.MulPlain(cy, big.NewInt(x[i])))
	}
	got := k.Decrypt(acc)
	half := new(big.Int).Rsh(k.N, 1)
	if got.Cmp(half) > 0 {
		got.Sub(got, k.N)
	}
	if got.Int64() != want {
		t.Fatalf("dot = %v want %d", got, want)
	}
}

func TestDecryptTextbookMatchesCRT(t *testing.T) {
	k := testKey
	for _, m := range []int64{0, 1, 424242, 1 << 50} {
		c := encT(t, &k.PublicKey, big.NewInt(m))
		crt := k.Decrypt(c)
		tb := k.DecryptTextbook(c)
		if crt.Cmp(tb) != 0 {
			t.Fatalf("m=%d: CRT %v != textbook %v", m, crt, tb)
		}
	}
}

// TestDecryptBitsMatchesDecrypt: a signed plaintext within the bound
// decrypts to the element of Z_N that Decrypt returns, bit for bit, on the
// one-half path (|p|−2) and on both sides of where it stops (|p|−1, |N|).
// At |N| the magnitudes pass N/2 and only their image mod N is encrypted.
func TestDecryptBitsMatchesDecrypt(t *testing.T) {
	k := testKey
	pb := k.p.BitLen()
	for _, bits := range []int{pb - 2, pb - 1, k.N.BitLen()} {
		top := new(big.Int).Lsh(one, uint(bits))
		for _, mag := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Rsh(top, 1), new(big.Int).Sub(top, one)} {
			for _, v := range []*big.Int{mag, new(big.Int).Neg(mag)} {
				m := new(big.Int).Mod(v, k.N)
				c := encT(t, &k.PublicKey, m)
				got, want := k.DecryptBits(c, bits), k.Decrypt(c)
				if got.Cmp(want) != 0 || want.Cmp(m) != 0 {
					t.Fatalf("bits %d, m = %v: DecryptBits %v, Decrypt %v", bits, v, got, want)
				}
			}
		}
	}
}

// TestDecryptBitsIsHalfWidth pins which path reads only the residue mod p:
// Enc(v + k·p) decrypts to v under a bound below p/2 and to v + k·p under
// Decrypt.
func TestDecryptBitsIsHalfWidth(t *testing.T) {
	k := testKey
	rng := mrand.New(mrand.NewSource(7))
	for _, v := range []int64{0, 5, -123456789} {
		kp := new(big.Int).Rand(rng, k.q)
		kp.Mul(kp, k.p)
		m := new(big.Int).Add(kp, big.NewInt(v))
		m.Mod(m, k.N)
		c := encT(t, &k.PublicKey, m)
		if got := k.Decrypt(c); got.Cmp(m) != 0 {
			t.Fatalf("Decrypt(Enc(%d + k·p)) = %v, want %v", v, got, m)
		}
		wantV := new(big.Int).Mod(big.NewInt(v), k.N)
		if got := k.DecryptBits(c, k.p.BitLen()-2); got.Cmp(wantV) != 0 {
			t.Fatalf("DecryptBits(Enc(%d + k·p)) = %v, want %d", v, got, v)
		}
	}
}

func TestEncryptZero(t *testing.T) {
	k := testKey
	z, err := k.EncryptZero(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if k.Decrypt(z).Sign() != 0 {
		t.Fatal("EncryptZero does not decrypt to 0")
	}
}

func TestGenerateKeyRejectsTinyKeys(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 64); err == nil {
		t.Fatal("64-bit key accepted")
	}
}

func TestKeySizes(t *testing.T) {
	if testing.Short() {
		t.Skip("key generation sweep skipped in -short")
	}
	for _, bits := range []int{128, 256, 512} {
		k := mustKey(bits)
		if k.N.BitLen() != bits {
			t.Errorf("key bits = %d want %d", k.N.BitLen(), bits)
		}
		c := encT(t, &k.PublicKey, big.NewInt(1234))
		if k.Decrypt(c).Int64() != 1234 {
			t.Errorf("%d-bit key round trip failed", bits)
		}
	}
}

func BenchmarkEncrypt512(b *testing.B) { benchEncrypt(b, testKey) }

func benchEncrypt(b *testing.B, k *PrivateKey) {
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt512(b *testing.B) {
	k := testKey
	c, _ := k.Encrypt(rand.Reader, big.NewInt(123456789))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Decrypt(c)
	}
}

func BenchmarkMulPlain512(b *testing.B) {
	k := testKey
	c, _ := k.Encrypt(rand.Reader, big.NewInt(12345))
	s := big.NewInt(987654321)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MulPlain(c, s)
	}
}
