package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
)

// Secret-key fast paths. The label party generates the keypair in BlindFL's
// vertical setting, yet outside Decrypt every homomorphic op it runs treats
// its own key as public: MulPlain exponentiates mod N² with a full-width
// modulus, pool refills ignore the factorization, and the Straus dot kernels
// square 4096-bit residues when two 2048-bit chains would do. SecretOps
// exposes the factorization as a handle the hot paths consult:
//
//	ExpCRT    — base^e mod N² computed mod p² and q² separately and CRT-
//	            recombined; exponents are reduced modulo the subgroup orders
//	            p·(p−1), q·(q−1) when that shortens them. Exact: always the
//	            same integer as big.Int.Exp(base, e, N²).
//	MulPlain  — ⟦k·a⟧ with an adaptive strategy: CRT-split exponentiation
//	            for short scalars, and for full-width ring images the
//	            decrypt–scale–re-blind route whose exponents collapse to the
//	            CRT decryption orders p−1 and q−1 (~3.5× at 2048 bits). Like
//	            MulPlainSigned, the group element differs from the public
//	            MulPlain but the plaintext is identical.
//	Dot paths — PrecomputeDot/DotRow build their window tables mod p² and q²
//	            and run two half-width squaring chains (signed.go).
//
// A SecretOps is obtained from the key (sk.Ops()) and, like blinding pools,
// may be registered process-wide so that public-key entry points
// (PublicKey.MulPlain, Pool refills, the hetensor kernels) pick it up
// transparently. Registration is a single-trust-domain optimization: only
// register keys whose factorization this process legitimately holds. In an
// in-process two-party simulation registering both keys accelerates both
// parties — physically impossible in a real deployment — so the fed-step
// benchmarks leave it off and blindfl-train gates it behind -secretops.

// SecretOps bundles the CRT parameters for secret-key-side exponentiation
// mod N². Safe for concurrent use.
type SecretOps struct {
	sk         *PrivateKey
	ordP, ordQ *big.Int // subgroup orders p·(p−1), q·(q−1) of Z*_{p²}, Z*_{q²}
	q2InvP2    *big.Int // (q²)⁻¹ mod p²

	// Re-blinding source for the decrypt–scale path: (hⁿ)^α comb tables in
	// the style of the pool's short-exponent blinding, built on first use.
	blindOnce sync.Once
	blindFB   *FixedBase
	blindMax  *big.Int // 2^DefaultShortExpBits
	blindMu   sync.Mutex
}

// NewSecretOps derives the CRT fast-path handle from a private key. Cheap:
// the heavy comb tables for re-blinding are built lazily on first MulPlain.
func NewSecretOps(sk *PrivateKey) *SecretOps {
	return &SecretOps{
		sk:      sk,
		ordP:    new(big.Int).Mul(sk.p, sk.pOrder),
		ordQ:    new(big.Int).Mul(sk.q, sk.qOrder),
		q2InvP2: new(big.Int).ModInverse(sk.q2, sk.p2),
	}
}

// Ops returns the key's SecretOps handle, built once on first call.
func (sk *PrivateKey) Ops() *SecretOps {
	sk.opsOnce.Do(func() { sk.ops = NewSecretOps(sk) })
	return sk.ops
}

// combine CRT-recombines x ≡ xp (mod p²), x ≡ xq (mod q²) into x mod N².
func (so *SecretOps) combine(xp, xq *big.Int) *big.Int {
	d := new(big.Int).Sub(xp, xq)
	d.Mul(d, so.q2InvP2)
	d.Mod(d, so.sk.p2)
	d.Mul(d, so.sk.q2)
	d.Add(d, xq)
	return d
}

// halfExp computes base^e mod m² for one prime-square factor, reducing the
// exponent modulo the subgroup order when that shortens it. Reduction is
// only valid for units, so it is guarded by a gcd check — cheap next to the
// full-width exponentiation it replaces, and skipped entirely for short
// exponents.
func halfExp(base, e, m2, ord, prime *big.Int) *big.Int {
	b := new(big.Int).Mod(base, m2)
	if b.Sign() == 0 {
		if e.Sign() == 0 {
			return big.NewInt(1)
		}
		return b
	}
	if e.BitLen() >= ord.BitLen() {
		if new(big.Int).GCD(nil, nil, new(big.Int).Mod(b, prime), prime).Cmp(one) == 0 {
			e = new(big.Int).Mod(e, ord)
		}
	}
	return b.Exp(b, e, m2)
}

// ExpCRT returns base^e mod N², exponentiating mod p² and q² separately and
// recombining. It is exact — bit-identical to big.Int.Exp(base, e, N²) for
// every non-negative e — and ~1.7× faster at full width (the two half-size
// moduli), rising to ~2.3× for short exponents where the fixed recombination
// cost matters less.
func (so *SecretOps) ExpCRT(base, e *big.Int) *big.Int {
	if e.Sign() < 0 {
		panic("paillier: ExpCRT negative exponent")
	}
	sk := so.sk
	xp := halfExp(base, e, sk.p2, so.ordP, sk.p)
	xq := halfExp(base, e, sk.q2, so.ordQ, sk.q)
	return so.combine(xp, xq)
}

// blinding returns a fresh short-exponent re-randomization factor (hⁿ)^α,
// drawn from comb tables built once per SecretOps.
func (so *SecretOps) blinding() *big.Int {
	so.blindOnce.Do(func() {
		pk := &so.sk.PublicKey
		y, err := randUnit(Rand, pk.N)
		if err != nil {
			panic("paillier: SecretOps blinding setup: " + err.Error())
		}
		h := new(big.Int).Mul(y, y)
		h.Neg(h).Mod(h, pk.N)
		hn := so.ExpCRT(h, pk.N)
		so.blindFB = NewFixedBase(hn, pk.N, DefaultShortExpBits, 0)
		so.blindMax = new(big.Int).Lsh(one, DefaultShortExpBits)
	})
	so.blindMu.Lock()
	alpha, err := rand.Int(Rand, so.blindMax)
	so.blindMu.Unlock()
	if err != nil {
		panic("paillier: SecretOps blinding: " + err.Error())
	}
	alpha.Add(alpha, one)
	return so.blindFB.Exp(alpha)
}

// MulPlain returns ⟦k·a⟧ like PublicKey.MulPlain but exploits the key's
// factorization. Short scalars (under half the modulus width) take the
// CRT-split exponentiation; full-width ring images — the expensive general
// case — take the decrypt–scale–re-blind route, whose exponents collapse to
// the CRT decryption orders p−1, q−1 (the maximal subgroup-order reduction)
// plus a comb-table re-randomization. The returned group element differs
// from the public-path result (exactly as MulPlainSigned's does) but
// decrypts identically for every valid ciphertext.
func (so *SecretOps) MulPlain(a *Ciphertext, k *big.Int) *Ciphertext {
	if a == nil || a.C == nil {
		panic("paillier: SecretOps.MulPlain on corrupted ciphertext (nil value)")
	}
	pk := &so.sk.PublicKey
	kk := new(big.Int).Mod(k, pk.N)
	if kk.BitLen() <= pk.N.BitLen()/2 {
		return &Ciphertext{C: so.ExpCRT(a.C, kk)}
	}
	m := so.sk.Decrypt(a)
	m.Mul(m, kk).Mod(m, pk.N)
	c := m.Mul(m, pk.N) // g^(m·k) = 1 + (m·k mod N)·N mod N²
	c.Add(c, one)
	c.Mod(c, pk.N2)
	c.Mul(c, so.blinding())
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// secretOpsReg maps a public-key fingerprint to the registered SecretOps,
// mirroring the blinding-pool registry.
var secretOpsReg sync.Map

// RegisterSecretOps makes sk's CRT fast paths visible to the public-key
// entry points (MulPlain, MulPlainSigned, the Straus dot kernels, pool and
// inline encryption blinding) for every ciphertext under sk's public key.
// Only register keys this process legitimately holds; see the package note
// on single-trust-domain scoping.
func RegisterSecretOps(sk *PrivateKey) { secretOpsReg.Store(sk.fingerprint(), sk.Ops()) }

// UnregisterSecretOps removes the registration for sk's public key.
func UnregisterSecretOps(pk *PublicKey) { secretOpsReg.Delete(pk.fingerprint()) }

// SecretOpsFor returns the registered SecretOps for pk, or nil. The
// fingerprint hit is confirmed against the full modulus, so a (vanishingly
// unlikely) fingerprint collision degrades to the public path, never to a
// wrong key.
func SecretOpsFor(pk *PublicKey) *SecretOps {
	v, ok := secretOpsReg.Load(pk.fingerprint())
	if !ok {
		return nil
	}
	so := v.(*SecretOps)
	if so.sk.N.Cmp(pk.N) != 0 {
		return nil
	}
	return so
}
