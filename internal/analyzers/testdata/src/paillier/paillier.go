// Package paillier is a fixture stand-in for blindfl/internal/paillier: the
// same type names the bigval analyzer keys on, with none of the crypto.
package paillier

import "math/big"

// Ciphertext mirrors the real one-pointer struct: a value copy aliases C.
type Ciphertext struct {
	C *big.Int
}

// DotTables stands in for the shared precomputed dot tables.
type DotTables struct {
	N int
}

// Dot is read-only: callable on cache results.
func (t *DotTables) Dot() int { return t.N }

// DotGroup is read-only: callable on cache results.
func (t *DotTables) DotGroup() int { return t.N }

// Window is read-only: callable on cache results.
func (t *DotTables) Window() int { return t.N }

// Bytes is read-only: callable on cache results.
func (t *DotTables) Bytes() int { return t.N }

// Touch mutates the tables and must never run on a cache result.
func (t *DotTables) Touch() { t.N++ }
