//go:build race

package paillier

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop items at random, so allocation guards cannot hold under it.
const raceEnabled = true
