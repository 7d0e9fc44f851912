package paillier_test

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/protocol"
)

// FuzzDecryptBits draws a signed plaintext below a random bound and checks
// DecryptBits at that bound against Decrypt on the TestKeys pair. The seeds
// sit where the one-half path stops, bounds |p|−2 and |p|−1, and at the
// modulus width, each at magnitudes 0 and just under the bound.
func FuzzDecryptBits(f *testing.F) {
	skA, _ := protocol.TestKeys()
	pb := skA.N.BitLen() / 2 // GenerateKey's p has bits/2 bits
	for _, bits := range []uint16{1, 124, uint16(pb - 2), uint16(pb - 1), uint16(skA.N.BitLen())} {
		for _, neg := range []bool{false, true} {
			f.Add(int64(bits), bits, uint16(0), neg, false)
			f.Add(int64(bits)+1, bits, bits, neg, true)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, bits, mag uint16, neg, keyB bool) {
		skA, skB := protocol.TestKeys()
		sk := skA
		if keyB {
			sk = skB
		}
		b := int(bits) % (sk.N.BitLen() + 1)
		// 2^(w−1) ≤ |v| < 2^w ≤ 2^b: the top of the bound, where a wrong
		// path shows, and below N/2 so that v has a signed image.
		w := min(int(mag)%(b+1), sk.N.BitLen()-2)
		r := mrand.New(mrand.NewSource(seed))
		v := new(big.Int).Lsh(big.NewInt(1), uint(w))
		v.Sub(v, big.NewInt(1))
		if w > 0 {
			v.Sub(v, new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(w-1))))
		}
		if neg {
			v.Neg(v)
		}
		c, err := sk.Encrypt(r, fixedpoint.ToRing(v, sk.N))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sk.DecryptBits(c, b), sk.Decrypt(c); got.Cmp(want) != 0 {
			t.Fatalf("bound %d, v = %v: DecryptBits %v, Decrypt %v", b, v, got, want)
		}
	})
}
