package protocol

import (
	"sync"

	"blindfl/internal/paillier"
)

// KeyBits is the Paillier modulus size used when generating session keys.
// 1024 bits is the benchmark default; tests use TestKeys (512 bits) for
// speed. Production deployments should use 2048.
const KeyBits = 1024

var (
	testKeyOnce sync.Once
	testKeyA    *paillier.PrivateKey
	testKeyB    *paillier.PrivateKey
)

// TestKeys returns a process-wide cached pair of 512-bit Paillier keys.
// Key generation is a per-deployment setup cost, not a per-protocol cost,
// so tests and benchmarks share one pair.
func TestKeys() (*paillier.PrivateKey, *paillier.PrivateKey) {
	testKeyOnce.Do(func() {
		var err error
		testKeyA, err = paillier.GenerateKey(paillier.Rand, 512)
		if err != nil {
			panic(err)
		}
		testKeyB, err = paillier.GenerateKey(paillier.Rand, 512)
		if err != nil {
			panic(err)
		}
	})
	return testKeyA, testKeyB
}
