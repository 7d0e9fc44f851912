// Package rng centralizes deterministic seed derivation. Every RNG stream
// in the repo is named by a (base seed, label) pair and derived through the
// SplitMix64 finalizer, so distinct labels can never alias the way raw
// seed+k arithmetic can (PR 5's mask-stream collision: seed+i and seed+i+1
// overlap across adjacent sessions). Two call sites that must share a
// stream — both parties of a federated loop drawing the same batch
// permutation — share a label; everything else gets its own.
//
// The rngstream analyzer (internal/analyzers) enforces this package as the
// only road from one seed to another.
package rng

import "math/rand"

// golden is 2^64/phi, SplitMix64's stream increment; adding it before
// mixing keeps zero and small inputs away from Mix64's fixed point at 0.
const golden = 0x9e3779b97f4a7c15

// Mix64 is the SplitMix64 finalizer: a bijective avalanche over uint64.
// Session and SessionEpoch build on the same function, so the session streams
// and the label streams live in one derivation family.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Derive returns the seed of the (seed, label) stream, folding each label
// byte through Mix64 so no arithmetic relation between labels survives
// into the derived seeds.
func Derive(seed int64, label string) int64 {
	h := Mix64(uint64(seed) + golden)
	for i := 0; i < len(label); i++ {
		h = Mix64(h ^ (uint64(label[i]) + golden))
	}
	return int64(h)
}

// New returns a math/rand stream for the (seed, label) pair.
func New(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(Derive(seed, label)))
}

// Session derives the seed of a per-session protocol stream from the
// (seed, shard, session, role) coordinate. The shard coordinate is the
// shard's session offset — the global index of its first session — and the
// session coordinate is shard-local, so the derived seed depends only on the
// global session index shard+session. That one identity carries the whole
// sharding story: shard 0 of 1 (offset 0) reproduces the unsharded streams
// bit for bit, and re-partitioning k sessions across a different shard count
// leaves every session's streams unchanged, which is what makes checkpoints
// resumable onto any shard count.
//
// This is the only sanctioned place stream coordinates may be folded
// together; callers pass them separately (the rngstream analyzer flags
// arithmetic in derivation-call arguments).
func Session(seed int64, shard, session int, role uint64) int64 {
	h := Mix64(uint64(seed) + golden)
	h = Mix64(h ^ (uint64(shard+session) + golden))
	h = Mix64(h ^ role)
	return int64(h)
}

// SessionEpoch extends Session with a per-epoch coordinate: the stream a
// session re-derives at each epoch boundary so a resumed run can re-enter
// the exact mask stream of any epoch without replaying the earlier ones.
// The epoch enters as (epoch+1)*golden so epoch 0's stream differs from the
// setup stream Session returns.
func SessionEpoch(seed int64, shard, session int, role uint64, epoch int) int64 {
	h := Mix64(uint64(seed) + golden)
	h = Mix64(h ^ (uint64(shard+session) + golden))
	h = Mix64(h ^ role)
	h = Mix64(h ^ (uint64(epoch+1) * golden))
	return int64(h)
}
