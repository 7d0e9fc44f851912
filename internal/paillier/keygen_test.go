package paillier_test

import (
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
)

// TestKeyConstantsMatchExp: GenerateKey derives hp, hq and mu from the
// closed form (N+1)^k ≡ 1 + k·N mod p², q² and N². They must be the
// constants the exponentiations give, on the shared test keys and on a
// fresh key.
func TestKeyConstantsMatchExp(t *testing.T) {
	skA, skB := protocol.TestKeys()
	fresh, err := paillier.GenerateKey(paillier.Rand, 512)
	if err != nil {
		t.Fatal(err)
	}
	for name, sk := range map[string]*paillier.PrivateKey{"TestKeys A": skA, "TestKeys B": skB, "fresh 512-bit": fresh} {
		if bad := paillier.ExpMismatches(sk); len(bad) != 0 {
			t.Errorf("%s: %v differ from the big.Int.Exp form", name, bad)
		}
	}
}
