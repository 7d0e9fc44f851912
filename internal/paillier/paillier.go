// Package paillier implements the Paillier additively homomorphic
// cryptosystem (Paillier, EUROCRYPT '99) as used by BlindFL's federated
// source layers. It supports:
//
//	Enc(v)             — encryption under a public key
//	Dec(⟦v⟧)           — decryption with the secret key (CRT-accelerated;
//	                     one CRT half when v is known to lie below p/2)
//	⟦u⟧ + ⟦v⟧ = ⟦u+v⟧  — homomorphic addition (AddCipher)
//	⟦u⟧ + v  = ⟦u+v⟧   — plaintext addition (AddPlain)
//	k·⟦v⟧    = ⟦k·v⟧   — scalar multiplication (MulPlain)
//
// Plaintexts are elements of Z_n; callers encode signed fixed-point values
// via the fixedpoint package. The implementation uses g = n+1, so encryption
// costs one n-bit exponentiation (the random blinding r^n) plus two
// multiplications.
//
// On top of the textbook operations the package provides a fast
// exponentiation engine (signed.go) for the homomorphic matmul hot paths:
//
//	MulPlainSigned — scalar multiplication by a signed-magnitude scalar,
//	  exponentiating by the small magnitude and inverting once mod n²
//	  instead of exponentiating by the full-width ring image n−|k|;
//	DotRow / DotTables — Straus interleaved multi-exponentiation computing
//	  an encrypted dot product Π cᵢ^{kᵢ} with one shared squaring chain
//	  over per-base window tables of each base's and its inverse's powers
//	  (one inversion per table build, none per evaluation);
//	Pool + WithShortExp — precomputed encryption blindings, optionally
//	  drawn as (h^n)^α for a short random α in the style of
//	  Damgård–Jurik–Nielsen, replacing the full n-bit refill
//	  exponentiation with a ~400-bit one.
//
// and an amortized precomputation (fixedbase.go) that turns one-time work
// into per-op savings:
//
//	FixedBase — Lim–Lee comb tables for a constant base (the pool's hⁿ):
//	  after a one-time table build, base^e costs ~bits/8 multiplications
//	  with no squarings. Short-exp pool refills use it by default
//	  (WithFixedBase ablates it).
//
// Every product of the chains, table builds and comb lookups above is taken in
// the digit form of sqmod.go: the modulus N² is a square, so a residue is two
// base-N digits and a multiplication seven half-width products and two
// Barrett steps — no long division; what leaves is the canonical residue.
package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

var one = big.NewInt(1)

// PublicKey holds the encryption key. N is the modulus; ciphertexts live in
// Z_{N²}.
type PublicKey struct {
	N  *big.Int
	N2 *big.Int // N², cached
}

// fingerprint returns a cheap 64-bit identity for the modulus, used to key
// the process-wide pool registry. Mixing the lowest and
// highest limbs with the bit length is O(1) — unlike the previous
// N.String() key, which performed an O(n²) binary→decimal conversion of a
// 2048-bit modulus on every registry lookup. Lookups confirm the full
// modulus value on a hit, so a collision can only cost the fast path, never
// correctness.
func (pk *PublicKey) fingerprint() uint64 {
	ws := pk.N.Bits()
	if len(ws) == 0 {
		return 0
	}
	return uint64(ws[0]) ^ uint64(ws[len(ws)-1])<<1 ^ uint64(pk.N.BitLen())
}

// PrivateKey holds the decryption key together with the CRT parameters that
// make Dec roughly 3× faster than the textbook formula, and about 2× faster
// again when the plaintext is known to lie below p/2 in magnitude: one half,
// mod p², then suffices (DecryptBits).
type PrivateKey struct {
	PublicKey
	p, q   *big.Int // prime factors of N
	p2, q2 *big.Int // p², q²
	pOrder *big.Int // p−1
	qOrder *big.Int // q−1
	hp, hq *big.Int // CRT decryption constants
	qInvP  *big.Int // q⁻¹ mod p

	lambda *big.Int // lcm(p−1, q−1), cached for DecryptTextbook
	mu     *big.Int // L(g^λ mod N²)⁻¹ mod N, cached for DecryptTextbook
}

// Ciphertext is an element of Z_{N²} encrypting one plaintext.
type Ciphertext struct {
	C *big.Int
}

// GenerateKey creates a key pair with an n-bit modulus using randomness from
// random (crypto/rand.Reader in production). Bits must be at least 128; real
// deployments use 2048, the test suite uses smaller keys for speed.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("paillier: key size %d too small (min 128)", bits)
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		// gcd(pq, (p-1)(q-1)) must be 1; guaranteed when p, q are distinct
		// primes of equal size, but verify to be safe.
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
			continue
		}
		priv := &PrivateKey{
			PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
			p:         p, q: q,
			p2:     new(big.Int).Mul(p, p),
			q2:     new(big.Int).Mul(q, q),
			pOrder: pm1,
			qOrder: qm1,
		}
		// hp = L_p(g^(p−1) mod p²)⁻¹ mod p with g = n+1, and hq likewise.
		priv.hp = new(big.Int).ModInverse(lFunc(gPow(n, pm1, priv.p2), p), p)
		priv.hq = new(big.Int).ModInverse(lFunc(gPow(n, qm1, priv.q2), q), q)
		if priv.hp == nil || priv.hq == nil {
			continue
		}
		priv.qInvP = new(big.Int).ModInverse(q, p)
		if priv.qInvP == nil {
			continue
		}
		// Cache λ = lcm(p−1, q−1) and µ = L(g^λ mod N²)⁻¹ mod N at keygen so
		// DecryptTextbook measures only the decryption exponentiation.
		priv.lambda = new(big.Int).Mul(pm1, qm1)
		priv.lambda.Div(priv.lambda, new(big.Int).GCD(nil, nil, pm1, qm1))
		priv.mu = new(big.Int).ModInverse(lFunc(gPow(n, priv.lambda, priv.N2), n), n)
		if priv.mu == nil {
			continue
		}
		return priv, nil
	}
}

// gPow returns g^k mod m for the generator g = n+1 and a modulus m that
// divides n² (p², q², N²): every term of the binomial expansion of (1+n)^k
// past the linear one is a multiple of n², so g^k ≡ 1 + k·n (mod m).
func gPow(n, k, m *big.Int) *big.Int {
	r := new(big.Int).Mul(k, n)
	r.Add(r, one)
	return r.Mod(r, m)
}

// lFunc computes L(x) = (x−1)/d.
func lFunc(x, d *big.Int) *big.Int {
	r := new(big.Int).Sub(x, one)
	return r.Div(r, d)
}

// Encrypt encrypts m ∈ Z_N under pk: c = (1 + m·N)·r^N mod N².
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of Z_N range")
	}
	r, err := randUnit(random, pk.N)
	if err != nil {
		return nil, err
	}
	// g^m = (1+N)^m = 1 + m·N (mod N²).
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, new(big.Int).Exp(r, pk.N, pk.N2))
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// randUnit draws r uniformly from Z_N^* (gcd(r, N) = 1).
func randUnit(random io.Reader, n *big.Int) (*big.Int, error) {
	for {
		r, err := rand.Int(random, n)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, n).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Decrypt recovers the plaintext of c ∈ Z_N: DecryptBits at the modulus
// width, so both CRT halves.
func (sk *PrivateKey) Decrypt(c *Ciphertext) *big.Int {
	return sk.DecryptBits(c, sk.N.BitLen())
}

// DecryptBits recovers the plaintext of c, given that its signed image (the
// plaintext m or m − N, whichever is smaller in magnitude) lies below 2^bits
// in magnitude. When 2^(bits+1) < p, m mod p determines that signed value, so
// one exponentiation mod p² recovers it and the q half is never computed;
// otherwise both halves are recombined by CRT. A plaintext within the bound
// decrypts to the element of Z_N that Decrypt returns; one above it does not.
func (sk *PrivateKey) DecryptBits(c *Ciphertext, bits int) *big.Int {
	mp := decryptHalf(c.C, sk.p, sk.p2, sk.pOrder, sk.hp)
	if bits+2 <= sk.p.BitLen() { // 2^(bits+1) ≤ 2^(|p|−1) < p
		if mp.Cmp(new(big.Int).Rsh(sk.p, 1)) > 0 { // m = mp − p < 0, lifted into Z_N
			mp.Add(mp, sk.N).Sub(mp, sk.p)
		}
		return mp
	}
	mq := decryptHalf(c.C, sk.q, sk.q2, sk.qOrder, sk.hq)
	// CRT combine: m = mq + q·((mp − mq)·qInvP mod p)
	d := mp.Sub(mp, mq)
	d.Mul(d, sk.qInvP)
	d.Mod(d, sk.p)
	m := d.Mul(d, sk.q)
	m.Add(m, mq)
	return m.Mod(m, sk.N)
}

// decryptHalf returns the plaintext mod the prime r:
// L_r(c^(r−1) mod r²)·h_r mod r.
func decryptHalf(c, r, r2, order, h *big.Int) *big.Int {
	x := lFunc(new(big.Int).Exp(c, order, r2), r)
	x.Mul(x, h)
	return x.Mod(x, r)
}

// DecryptTextbook recovers the plaintext with the textbook formula
// m = L(c^λ mod N²)·µ mod N, without the CRT split. λ and µ are computed
// once at keygen, so this measures only the decryption exponentiation. It
// exists for the decryption ablation benchmark; Decrypt is ~3–4× faster and
// functionally identical.
func (sk *PrivateKey) DecryptTextbook(c *Ciphertext) *big.Int {
	cl := new(big.Int).Exp(c.C, sk.lambda, sk.N2)
	m := lFunc(cl, sk.N)
	m.Mul(m, sk.mu)
	return m.Mod(m, sk.N)
}

// AddCipher returns ⟦a+b⟧ given ⟦a⟧ and ⟦b⟧ under the same key.
func (pk *PublicKey) AddCipher(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// AddPlain returns ⟦a+m⟧ given ⟦a⟧ and a plaintext m ∈ Z_N, without a fresh
// encryption: ⟦a⟧·g^m = ⟦a⟧·(1+m·N) mod N². Panics with a clear message on
// a corrupted (nil-valued) ciphertext instead of returning one that fails
// later inside big.Int.
func (pk *PublicKey) AddPlain(a *Ciphertext, m *big.Int) *Ciphertext {
	if a == nil || a.C == nil {
		panic("paillier: AddPlain on corrupted ciphertext (nil value)")
	}
	gm := new(big.Int).Mul(new(big.Int).Mod(m, pk.N), pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, a.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// MulPlain returns ⟦k·a⟧ given ⟦a⟧ and a plaintext scalar k (may be
// negative; it is reduced into Z_N).
func (pk *PublicKey) MulPlain(a *Ciphertext, k *big.Int) *Ciphertext {
	kk := new(big.Int).Mod(k, pk.N)
	return &Ciphertext{C: new(big.Int).Exp(a.C, kk, pk.N2)}
}

// Neg returns ⟦−a⟧ by inverting the ciphertext mod N². A valid ciphertext is
// always invertible; Neg panics with a clear message when handed a corrupted
// one (a value sharing a factor with N) instead of returning a ciphertext
// wrapping nil that fails later inside big.Int.
func (pk *PublicKey) Neg(a *Ciphertext) *Ciphertext {
	if a == nil || a.C == nil {
		panic("paillier: Neg on corrupted ciphertext (nil value)")
	}
	return &Ciphertext{C: mustInverse(a.C, pk.N2, "Neg")}
}

// EncryptZero returns a fresh encryption of zero (useful for re-randomizing).
func (pk *PublicKey) EncryptZero(random io.Reader) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(0))
}

// Rand is the default randomness source for the package.
var Rand = rand.Reader
