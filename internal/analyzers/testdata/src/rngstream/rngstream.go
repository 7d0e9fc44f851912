// Package rngstream exercises the rngstream analyzer, including a
// reconstruction of the PR 5 session-seed aliasing bug and the PR 10
// coordinate-folding rule on the sanctioned derivation entry points.
package rngstream

import (
	"fmt"
	"math/rand"

	"protocol"
	"rng"
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// maskStreams reconstructs the PR 5 bug shape: session i seeds its peers
// with seed+i and seed+i+1, so party B of session i and party A of session
// i+1 share a mask stream.
func maskStreams(seed int64, sessions int) []*rand.Rand {
	out := make([]*rand.Rand, 0, 2*sessions)
	for i := 0; i < sessions; i++ {
		a := rand.New(rand.NewSource(seed + int64(i)))     // want `derived arithmetically`
		b := rand.New(rand.NewSource(seed + int64(i) + 1)) // want `derived arithmetically`
		out = append(out, a, b)
	}
	return out
}

func plainSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func constSeed() *rand.Rand {
	return rand.New(rand.NewSource(42 + 1))
}

func derivedSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed) + 1))))
}

func legacySeed(seed int64) *rand.Rand {
	//blindfl:allow rngstream reproduces the pre-fix stream for the migration test
	return rand.New(rand.NewSource(seed + 1))
}

// shardCoordFold reconstructs the PR 10 temptation: folding the shard's
// session offset into the session coordinate by hand instead of passing the
// coordinates separately. The fold is rng.Session's job; a caller's own fold
// can alias a neighboring shard's stream.
func shardCoordFold(seed int64, lo, j int) int64 {
	return rng.Session(seed, 0, lo+j, 1) // want `coordinate is built by arithmetic`
}

// shardCoordsSeparate is the approved shape: every coordinate its own
// argument, the derivation does the folding.
func shardCoordsSeparate(seed int64, lo, j int) int64 {
	return rng.Session(seed, lo, j, 1)
}

func seedCoordFold(seed int64, run int64) int64 {
	return rng.Derive(seed^run, "batch-order") // want `coordinate is built by arithmetic`
}

func epochCoordFold(seed int64, session, epoch int) int64 {
	return rng.SessionEpoch(seed, 0, session, 1, epoch*2+1) // want `coordinate is built by arithmetic`
}

func constCoords(seed int64) int64 {
	return rng.SessionEpoch(seed, 0, 3+1, 1, 0) // constant folds are fine
}

// peerCoordFold is the shard worker's temptation at the peer constructor:
// folding its session offset into the session coordinate by hand.
func peerCoordFold(seed int64, lo, j int) *protocol.Peer {
	return protocol.NewPeer(protocol.PartyB, nil, nil, seed, 0, lo+j) // want `coordinate is built by arithmetic`
}

func peerCoordsSeparate(seed int64, lo, j int) *protocol.Peer {
	return protocol.NewPeer(protocol.PartyB, nil, nil, seed, lo, j)
}

// retrySeedFold is the serve setup's former shape: attempt k at seed s pipes
// with seed s+1+k, so it draws the mask streams of attempt k−1 at seed s+1.
func retrySeedFold(seed int64, attempt int) {
	protocol.Pipe(nil, nil, seed+1+int64(attempt))           // want `coordinate is built by arithmetic`
	protocol.PipeOn(nil, nil, nil, nil, seed+int64(attempt)) // want `coordinate is built by arithmetic`
	protocol.GroupPipe(nil, nil, seed+1+int64(attempt))      // want `coordinate is built by arithmetic`
}

// retrySeedDerived is the approved shape: the attempt is its own
// coordinate of a derivation.
func retrySeedDerived(seed int64, attempt int) {
	protocol.GroupPipe(nil, nil, rng.Derive(seed, fmt.Sprintf("serve-setup:%d", attempt)))
}
