// Package protocol is a fixture stand-in for internal/protocol's peer
// constructor and pipes, exercising the rngstream coordinate rule at the
// NewPeer, Pipe, PipeOn and GroupPipe call sites.
package protocol

import (
	"math/rand"

	"rng"
)

type Role uint64

const (
	PartyA Role = 1
	PartyB Role = 2
)

type Peer struct{ Rng *rand.Rand }

func NewPeer(role Role, conn, sk any, seed int64, shard, session int) *Peer {
	return &Peer{Rng: rand.New(rand.NewSource(rng.Session(seed, shard, session, uint64(role))))}
}

func Pipe(skA, skB any, seed int64) (*Peer, *Peer, error) {
	return NewPeer(PartyA, nil, skA, seed, 0, 0), NewPeer(PartyB, nil, skB, seed, 0, 0), nil
}

func PipeOn(ca, cb, skA, skB any, seed int64) (*Peer, *Peer, error) {
	return NewPeer(PartyA, ca, skA, seed, 0, 0), NewPeer(PartyB, cb, skB, seed, 0, 0), nil
}

func GroupPipe(skAs []any, skB any, seed int64) ([]*Peer, *Peer, error) {
	as := make([]*Peer, len(skAs))
	for j, sk := range skAs {
		as[j] = NewPeer(PartyA, nil, sk, seed, 0, j)
	}
	return as, NewPeer(PartyB, nil, skB, seed, 0, 0), nil
}
