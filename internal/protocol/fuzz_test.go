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
