package protocol

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"blindfl/internal/hetensor"
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
			return transport.SendStream(c, 0, 3, 2, 1, func(int) (any, error) { return m, nil })
		}))
	}
	for _, h := range hostileStreams() {
		f.Add(wireBytes(f, func(c transport.Conn) error { return h.send(c, &skB.PublicKey) }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, hangUp := feed(data)
		defer hangUp()
		var got hetensor.Matrix
		var err error
		if n := allocated(func() { err = b.Run(func() { got = b.RecvMatrix() }) }); n > 16<<20+4096*uint64(len(data)) {
			t.Fatalf("allocated %d bytes receiving %d", n, len(data))
		}
		if err != nil {
			return
		}
		// A returned matrix is vetted: it decrypts without panicking.
		if got.Key() == &skB.PublicKey {
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
