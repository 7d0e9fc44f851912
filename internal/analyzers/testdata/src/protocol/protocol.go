// Package protocol is a fixture stand-in for internal/protocol's peer
// constructor, exercising the rngstream coordinate rule at the NewPeer call
// sites.
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
