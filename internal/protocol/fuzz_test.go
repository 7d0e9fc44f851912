package protocol

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"net"
	"strings"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// feed plays data to a label party as the bytes of a gob link whose other end
// then hangs up, reading off (and dropping) whatever the party sends back.
func feed(data []byte) (b *Peer, hangUp func()) {
	w, r := net.Pipe()
	go io.Copy(io.Discard, w)
	go func() {
		w.Write(data)
		w.Close()
	}()
	b = hostileReceiver(transport.NewGobConn(r))
	return b, func() { b.Conn.Close() }
}

// wireBytes returns what send puts on a gob link, byte for byte.
func wireBytes(t testing.TB, send func(c transport.Conn) error) []byte {
	t.Helper()
	w, r := net.Pipe()
	var buf bytes.Buffer
	read := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(read)
	}()
	c := transport.NewGobConn(w)
	if err := send(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-read
	return buf.Bytes()
}

// FuzzRecvMatrix feeds arbitrary bytes to the one receive function as a gob
// link would deliver them. Whatever a peer sends, the receiver returns a
// matrix or an error through Run — it never panics — and allocates no more
// than a fixed multiple of what it was sent.
func FuzzRecvMatrix(f *testing.F) {
	_, skB := TestKeys()
	for _, packed := range []bool{false, true} {
		f.Add(wireBytes(f, func(c transport.Conn) error {
			m := hetensor.EncryptAs(&skB.PublicKey, tensor.NewDense(3, 2), 1, hetensor.Layout{Packed: packed})
			return transport.SendStream(transport.NewStreamConn(c), 0, 3, 2, 1, func(int) (any, error) { return m, nil })
		}))
	}
	for _, h := range hostileStreams() {
		f.Add(wireBytes(f, func(c transport.Conn) error { return h.send(c, &skB.PublicKey) }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, hangUp := feed(data)
		defer hangUp()
		var got *hetensor.Matrix
		var err error
		if n := allocated(func() { err = b.Run(func() { got = b.RecvMatrix() }) }); n > 16<<20+4096*uint64(len(data)) {
			t.Fatalf("allocated %d bytes receiving %d", n, len(data))
		}
		if err != nil {
			return
		}
		// A returned matrix is vetted: it decrypts without panicking.
		if got.PK == &skB.PublicKey {
			got.Decrypt(skB)
		}
	})
}

// TestStreamHostileBytesTyped pins what the fuzz property leaves open: the
// seeded hostile transfers, as bytes on a gob link, each end in the typed
// error.
func TestStreamHostileBytesTyped(t *testing.T) {
	_, skB := TestKeys()
	for _, h := range hostileStreams() {
		data := wireBytes(t, func(c transport.Conn) error { return h.send(c, &skB.PublicKey) })
		b, hangUp := feed(data)
		if err := b.Run(func() { b.RecvMatrix() }); !errors.Is(err, transport.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want transport.ErrCorrupt", h.name, err)
		}
		hangUp()
	}
}

// hostileKeys are handshake public keys a peer could send that no kernel here
// can use, each with the reason vetPeerKey must give.
func hostileKeys() []struct {
	name, why string
	pk        *paillier.PublicKey
} {
	skA, _ := TestKeys()
	n := skA.N
	sq := func(x *big.Int) *big.Int { return new(big.Int).Mul(x, x) }
	even := new(big.Int).Add(n, big.NewInt(1))
	tiny := big.NewInt(1<<61 - 1)
	huge := new(big.Int).Lsh(big.NewInt(1), 8<<20-1) // a 1 MB modulus
	huge.SetBit(huge, 0, 1)
	return []struct {
		name, why string
		pk        *paillier.PublicKey
	}{
		{"nil N", "nil modulus", &paillier.PublicKey{N2: sq(n)}},
		{"nil N2", "N2 is not N·N", &paillier.PublicKey{N: n}},
		{"even N", "not positive and odd", &paillier.PublicKey{N: even, N2: sq(even)}},
		{"negative N", "not positive and odd", &paillier.PublicKey{N: new(big.Int).Neg(n), N2: sq(n)}},
		{"mismatched N2", "N2 is not N·N", &paillier.PublicKey{N: n, N2: new(big.Int).Add(sq(n), big.NewInt(2))}},
		{"tiny N", "outside", &paillier.PublicKey{N: tiny, N2: sq(tiny)}},
		{"1 MB N", "outside", &paillier.PublicKey{N: huge, N2: huge}},
	}
}

// TestHandshakeRejectsHostileKeys: every hostile key, as bytes on a gob link,
// ends the handshake in a typed ErrCorrupt naming what is wrong with it — not
// in a panic at the first matrix received under it.
func TestHandshakeRejectsHostileKeys(t *testing.T) {
	for _, h := range hostileKeys() {
		data := wireBytes(t, func(c transport.Conn) error { return c.Send(transport.NewHandshake(h.pk)) })
		b, hangUp := feed(data)
		err := b.Handshake()
		hangUp()
		if !errors.Is(err, transport.ErrCorrupt) || !strings.Contains(err.Error(), h.why) {
			t.Fatalf("%s: err = %v, want transport.ErrCorrupt (%s)", h.name, err, h.why)
		}
	}
}

// FuzzHandshake feeds arbitrary bytes to the handshake's key receive. Whatever
// a peer sends, the handshake returns an error or a key the kernels can use —
// it never panics — and allocates no more than a fixed multiple of what it
// was sent.
func FuzzHandshake(f *testing.F) {
	skA, _ := TestKeys()
	f.Add(wireBytes(f, func(c transport.Conn) error { return c.Send(transport.NewHandshake(&skA.PublicKey)) }))
	for _, h := range hostileKeys() {
		f.Add(wireBytes(f, func(c transport.Conn) error { return c.Send(transport.NewHandshake(h.pk)) }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, hangUp := feed(data)
		defer hangUp()
		var err error
		if n := allocated(func() { err = b.Handshake() }); n > 16<<20+4096*uint64(len(data)) {
			t.Fatalf("allocated %d bytes receiving %d", n, len(data))
		}
		if err != nil {
			return
		}
		pk := b.PeerPK
		if pk.N.Bit(0) == 0 || pk.N.BitLen() < minPeerKeyBits || pk.N.BitLen() > maxPeerKeyBits ||
			pk.N2.Cmp(new(big.Int).Mul(pk.N, pk.N)) != 0 {
			t.Fatalf("handshake accepted a malformed %d-bit key", pk.N.BitLen())
		}
	})
}

// shardReceivers are the shard plane's decoders, each fed one peer's bytes
// on conn: the worker's accepts of the root's hello and of a feature party's
// session hello, the root's wait for the hello's ack, the setup document's
// receive, and the sealed data plane — forward partials, the gradient, the
// serve share and the checkpoint's layer blobs (a session's dense or sparse
// MatMul halves, opaque here).
func shardReceivers() []struct {
	name string
	recv func(c transport.Conn) error
} {
	link := func(f func(l *ShardLink)) func(transport.Conn) error {
		return func(c transport.Conn) error { return Catch("shard", func() { f(&ShardLink{Conn: c}) }) }
	}
	return []struct {
		name string
		recv func(c transport.Conn) error
	}{
		{"hello", func(c transport.Conn) error { _, _, err := AcceptShard(c); return err }},
		{"ack", func(c transport.Conn) error {
			_, err := ConnectShards(ShardPlan{Sessions: 2, Shards: 1}, 7, func(int) (transport.Conn, error) { return c, nil })
			return err
		}},
		{"session hello", func(c transport.Conn) error {
			_, err := AcceptSessions(func() (transport.Conn, error) { return c, nil }, ShardPlan{Sessions: 1, Shards: 1}, 0, 7, &WorkerConns{})
			return err
		}},
		{"setup", func(c transport.Conn) error { _, err := (&ShardLink{Conn: c}).RecvSetup(); return err }},
		{"parts", link(func(l *ShardLink) { l.RecvParts(2, 3, 2) })},
		{"grad", link(func(l *ShardLink) { l.RecvGrad(3, 2) })},
		{"share", link(func(l *ShardLink) { l.RecvShare(2, 3, 2) })},
		{"layers", link(func(l *ShardLink) { l.RecvLayers(1, 2) })},
	}
}

// FuzzShard feeds arbitrary bytes, as a gob link delivers them, to every
// shard-plane decoder. It is seeded with one sealed message of each kind the
// plane carries. Whatever arrives, each decoder returns a value or an error
// typed as corrupt, closed, a schedule mismatch or a lost shard — never a
// panic — and allocates no more than a fixed multiple of what it was sent.
func FuzzShard(f *testing.F) {
	z := tensor.NewDense(3, 2)
	share := &hetensor.BigMatrix{Rows: 2, Cols: 3, Scale: 2, V: make([]*big.Int, 6)}
	for i := range share.V {
		share.V[i] = big.NewInt(int64(i) - 3)
	}
	for _, v := range []any{
		&transport.ShardHello{Shard: 0, Shards: 1, Sessions: 2, Fingerprint: 7},
		&transport.ShardAck{Shard: 0, Fingerprint: 7},
		&transport.SessionHello{Session: 0, Fingerprint: 7},
		&transport.ShardBlob{Kind: "setup", Data: []byte("a setup document")},
		&transport.ShardParts{Seq: 0, Zs: []*tensor.Dense{z, z}},
		&transport.ShardGrad{Seq: 0, G: z},
		&transport.ShardShare{Seq: 0, S: share},
		&transport.ShardLayers{Epoch: 1, Blobs: [][]byte{{1, 2, 3}, {4}}},
	} {
		f.Add(wireBytes(f, func(c transport.Conn) error { return c.Send(transport.NewHandshake(v)) }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range shardReceivers() {
			w, rd := net.Pipe()
			go io.Copy(io.Discard, w)
			go func() {
				w.Write(data)
				w.Close()
			}()
			c := transport.NewGobConn(rd)
			var err error
			if n := allocated(func() { err = r.recv(c) }); n > 16<<20+4096*uint64(len(data)) {
				t.Fatalf("%s: allocated %d bytes receiving %d", r.name, n, len(data))
			}
			c.Close()
			if err != nil && !errors.Is(err, transport.ErrCorrupt) && !errors.Is(err, transport.ErrClosed) &&
				!errors.Is(err, ErrShardMismatch) && !errors.Is(err, ErrShardLost) {
				t.Fatalf("%s: untyped error %v", r.name, err)
			}
		}
	})
}
