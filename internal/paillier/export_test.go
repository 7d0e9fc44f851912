package paillier

import "math/big"

// ExpMismatches recomputes sk's decryption constants hp, hq and mu the long
// way — g = N+1 raised with big.Int.Exp — and names those that differ from
// the key's own.
func ExpMismatches(sk *PrivateKey) []string {
	g := new(big.Int).Add(sk.N, one)
	exp := func(k, m, d *big.Int) *big.Int {
		return new(big.Int).ModInverse(lFunc(new(big.Int).Exp(g, k, m), d), d)
	}
	var bad []string
	for _, c := range []struct {
		name      string
		got, want *big.Int
	}{
		{"hp", sk.hp, exp(sk.pOrder, sk.p2, sk.p)},
		{"hq", sk.hq, exp(sk.qOrder, sk.q2, sk.q)},
		{"mu", sk.mu, exp(sk.lambda, sk.N2, sk.N)},
	} {
		if c.got.Cmp(c.want) != 0 {
			bad = append(bad, c.name)
		}
	}
	return bad
}
