// Package bigval exercises the bigval analyzer: big.Int/Ciphertext value
// copies and mutation of shared dot-table cache results.
package bigval

import (
	"math/big"

	"paillier"
)

type wrapped struct {
	v big.Int
}

func passWrapped(w wrapped) { // want `signature passes`
	w.v.SetInt64(0)
}

func copyCipher(c *paillier.Ciphertext) paillier.Ciphertext { // want `signature passes`
	d := *c  // want `assignment copies`
	return d // want `return copies`
}

func callCopies(c *paillier.Ciphertext) {
	sink(*c) // want `call passes`
}

func sink(c interface{}) { _ = c }

func fresh() *big.Int {
	var z big.Int
	z.SetInt64(1)
	w := wrapped{}
	w.v.SetInt64(2)
	return &z
}

func tableCacheGet(key string) *paillier.DotTables { return &paillier.DotTables{} }

func useCache() int {
	t := tableCacheGet("k")
	t.N = 9   // want `shared and read-only`
	t.Touch() // want `non-read-only method`
	return t.Dot() + t.DotGroup() + t.Window() + t.Bytes()
}
