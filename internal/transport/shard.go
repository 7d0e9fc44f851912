// Shard wire messages and the multi-accept listener for the sharded label
// party (PR 10). The label party's sessions partition across worker
// processes that follow a deterministic per-epoch schedule derived from the
// shared seed, so the only traffic between the root and a shard worker is
// the data plane below — per-batch partial activations down-merged in fixed
// order, one gradient broadcast back — plus a connect-time hello/ack pair
// carrying the schedule fingerprint. The message structs live here, not in
// protocol, so Checksum can hash them structurally and the Handshake
// envelope seal gives the shard links the same integrity guarantee the
// chunk streams have.
package transport

import (
	"encoding/gob"
	"net"

	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
)

func init() {
	gob.Register(&ShardHello{})
	gob.Register(&ShardAck{})
	gob.Register(&SessionHello{})
	gob.Register(&ShardParts{})
	gob.Register(&ShardGrad{})
	gob.Register(&ShardShare{})
	gob.Register(&ShardLayers{})
	gob.Register(&ShardBlob{})
}

// ShardHello opens a root→worker shard link: which shard of how many the
// worker is, how many sessions the whole group has, and the schedule
// fingerprint — a hash over everything that determines the deterministic
// schedule (seed, engine options, model shape, epoch plan). A worker whose
// recomputed fingerprint disagrees refuses the connection typed, so
// mismatched seeds or options fail at connect, not as silent divergence.
type ShardHello struct {
	Shard       int // this worker's shard index
	Shards      int // total shard count
	Sessions    int // global session count (k feature parties)
	Fingerprint uint64
}

// ShardAck is the worker's reply: its shard index echoed and the fingerprint
// it will run under (echoed from the hello after local validation).
type ShardAck struct {
	Shard       int
	Fingerprint uint64
}

// SessionHello opens a feature-party→worker session conn: the *global*
// session index (so the worker can place it in its slice and derive the
// session's streams) and the same schedule fingerprint.
type SessionHello struct {
	Session     int
	Fingerprint uint64
}

// ShardParts carries one mini-batch's per-session forward partials from a
// worker to the root, in shard-local session order. Seq is the per-link
// data-plane ordinal; both ends count in lockstep, so a desynchronized
// schedule is a typed failure, not a silently mis-merged batch.
type ShardParts struct {
	Seq uint64
	Zs  []*tensor.Dense
}

// ShardGrad is the root's gradient broadcast for one mini-batch.
type ShardGrad struct {
	Seq uint64
	G   *tensor.Dense
}

// ShardShare carries a worker's serve-path share partial for one eval batch:
// the exact-integer sum of its sessions' shares, pre-summed worker-side
// (BigMatrix addition is associative, unlike the float training partials).
type ShardShare struct {
	Seq uint64
	S   *hetensor.BigMatrix
}

// ShardLayers carries a worker's serialized per-session layer halves — each
// session's settled dense or sparse MatMul half — up to the root at a
// checkpoint epoch, in shard-local session order.
type ShardLayers struct {
	Epoch int
	Blobs [][]byte
}

// ShardBlob is an opaque, checksummed control payload: Kind names the
// protocol step ("setup"), Data is a gob document the model layer owns.
// Wrapping the bytes here keeps Checksum structural over the full payload —
// an unknown struct would hash as its type tag only.
type ShardBlob struct {
	Kind string
	Data []byte
}

// Listener accepts any number of gob conns on a TCP address — the shard
// worker's front door, where one control link and a slice of session conns
// arrive as separate connections (Listen, by contrast, is the two-party
// helper: exactly one conn, then the listener closes).
type Listener struct {
	l net.Listener
}

// NewListener opens a TCP listener on addr; ":0" picks a free port, which
// Addr reports.
func NewListener(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address (host:port).
func (ln *Listener) Addr() string { return ln.l.Addr().String() }

// Accept waits for the next connection and wraps it as a gob conn.
func (ln *Listener) Accept() (Conn, error) {
	c, err := ln.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewGobConn(c), nil
}

// Close stops accepting. Conns already accepted are unaffected.
func (ln *Listener) Close() error { return ln.l.Close() }
