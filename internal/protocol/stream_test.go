package protocol

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// The one transfer path, over everything it may be asked to carry: both
// matrix kinds, every relation of the sender's span to the matrix height
// (whole, one row, dividing, not dividing, taller than the matrix), by
// pointer (transport.Pair) and through gob (NewGobConn over net.Pipe). The
// receiver's own ChunkRows is always set to something else: the span is the
// sender's business.

var spans = []int{0, 1, 2, 3, 99}

// eachPath runs f once per kind × span × transport on a fresh session with
// the sender's span set.
func eachPath(t *testing.T, seed int64, f func(t *testing.T, a, b *Peer, packed bool)) {
	skA, skB := TestKeys()
	for _, packed := range []bool{false, true} {
		for _, span := range spans {
			for _, wire := range []string{"pair", "gob"} {
				t.Run(fmt.Sprintf("packed=%v/span=%d/%s", packed, span, wire), func(t *testing.T) {
					ca, cb := transport.Pair(4096)
					if wire == "gob" {
						na, nb := net.Pipe()
						// Closing the pipe itself stops the gob writers at
						// once; their own Close would first wait out an ack
						// nobody reads any more.
						t.Cleanup(func() { na.Close(); nb.Close() })
						ca, cb = transport.NewGobConn(na), transport.NewGobConn(nb)
					}
					a, b, err := PipeOn(ca, cb, skA, skB, seed)
					if err != nil {
						t.Fatal(err)
					}
					a.ChunkRows, b.ChunkRows = span, 5
					f(t, a, b, packed)
				})
			}
		}
	}
}

// wantChunks is how many chunks a rows-tall matrix takes at a span.
func wantChunks(rows, span int) int64 {
	if span <= 0 || span >= rows {
		return 1
	}
	return int64((rows + span - 1) / span)
}

var streamed = tensor.FromSlice(7, 3, []float64{
	1.5, -2.25, 3, 0, -7.5, 0.125, 42, -1, 2, 9, -0.5, 4, 1, 2, 3, math.Pi, -1, 0.5, 6, -7, 8})

func TestStreamHE2SSReconstructs(t *testing.T) {
	eachPath(t, 40, func(t *testing.T, a, b *Peer, packed bool) {
		b.SpotCheck = true
		var shareA, shareB *tensor.Dense
		err := RunParties(a, b, func() {
			shareA = a.HE2SSSend(hetensor.EncryptAs(a.PeerPK, streamed, 1, hetensor.Layout{Packed: packed}))
		}, func() {
			shareB = b.HE2SSRecv()
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := shareA.Add(shareB); !got.Equal(streamed, 1e-9) {
			t.Fatalf("HE2SS shares do not reconstruct v: %v", got.Data)
		}
		if b.Stream.SpotChecks != 1 || b.Stream.SpotMismatches != 0 {
			t.Fatalf("spot-check of the first conversion: %+v", b.Stream)
		}
	})
}

func TestStreamSS2HEMatchesPieces(t *testing.T) {
	pieceB := streamed.Scale(-0.5)
	want := streamed.Add(pieceB)
	eachPath(t, 42, func(t *testing.T, a, b *Peer, packed bool) {
		b.ChunkRows = a.ChunkRows // SS2HE sends both ways
		var atA, atB *tensor.Dense
		err := RunParties(a, b, func() {
			// Each side encrypts in its own layout and adds to the other's.
			a.SendMatrix(a.SS2HEAs(streamed, 1, hetensor.Layout{Packed: packed})) // ⟦v⟧ under B's key, back to its owner
			atA = a.RecvMatrix().Decrypt(a.SK)
		}, func() {
			enc := b.SS2HEAs(pieceB, 1, hetensor.Layout{Packed: packed, Block: 1})
			atB = b.RecvMatrix().Decrypt(b.SK)
			b.SendMatrix(enc)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !atB.Equal(want, 1e-9) || !atA.Equal(want, 1e-9) {
			t.Fatalf("SS2HE results diverge: %v / %v want %v", atB.Data, atA.Data, want.Data)
		}
	})
}

// TestStreamRefreshRoundTrip pins RecvMatrix assembly and the stats the bench
// tables report: the receiver stores the transfer (as the refresh paths do),
// ships it back, and the key owner's decryption must reproduce the plaintext;
// chunk counts agree on both sides and the byte count covers the envelopes.
func TestStreamRefreshRoundTrip(t *testing.T) {
	for _, v := range []*tensor.Dense{streamed, tensor.FromSlice(1, 3, []float64{math.Pi, -1, 0.5}), tensor.NewDense(0, 3)} {
		eachPath(t, 45, func(t *testing.T, a, b *Peer, packed bool) {
			var got *tensor.Dense
			err := RunParties(a, b,
				func() {
					a.EncryptAndSend(v, 1, hetensor.Layout{Packed: packed})
					got = a.RecvMatrix().Decrypt(a.SK)
				},
				func() { defer b.Unchunked()(); b.SendMatrix(b.RecvMatrix()) })
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != v.Rows || !got.Equal(v, 1e-9) {
				t.Fatalf("refresh round trip decrypts to %v", got.Data)
			}
			n := wantChunks(v.Rows, a.ChunkRows)
			if a.Stream.StreamsSent != 1 || a.Stream.ChunksSent != n || b.Stream.StreamsRecv != 1 || b.Stream.ChunksRecv != n {
				t.Fatalf("stats a=%+v b=%+v, want 1 stream of %d chunks", a.Stream, b.Stream, n)
			}
			envelopes := int64(transport.WireSize(&transport.StreamHeader{}) + transport.WireSize(&transport.StreamEnd{}) + transport.WireSize(&transport.StreamAck{}))
			if a.Stream.BytesSent <= envelopes || b.Stream.RecvWait < 0 {
				t.Fatalf("sender stats %+v do not cover header, end and the return stream's ack", a.Stream)
			}
		})
	}
}

// TestStreamRecvRejectsOwnKeyViolation: a ciphertext under the sender's own
// key cannot be decrypted by the receiver, which must fail loudly instead of
// decrypting garbage.
func TestStreamRecvRejectsOwnKeyViolation(t *testing.T) {
	eachPath(t, 43, func(t *testing.T, a, b *Peer, packed bool) {
		// Not under RunParties: its teardown of a gob link first waits out
		// the sender's writer, which the receiver has stopped reading.
		sent := make(chan error, 1)
		go func() {
			sent <- a.Run(func() {
				a.HE2SSSend(hetensor.EncryptAs(&a.SK.PublicKey, tensor.NewDense(3, 1), 1, hetensor.Layout{Packed: packed}))
			})
		}()
		err := b.Run(func() { b.HE2SSRecv() })
		if err == nil || !strings.Contains(err.Error(), "not under this party's key") {
			t.Fatalf("err = %v", err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	})
}

// TestStreamChunksAnonymousOnEveryTransport: a packed backward pass must look
// the same to the dot-table cache whether its ⟦∇Z⟧ chunks arrive by pointer
// (transport.Pair hands over the sender's own object, minted identity and
// all) or through gob (which drops the identity): no lookups, no ghosts, no
// inserts. The receiver must also leave the sender's object alone.
func TestStreamChunksAnonymousOnEveryTransport(t *testing.T) {
	skA, skB := TestKeys()
	rng := rand.New(rand.NewSource(77))
	x := tensor.RandDense(rng, 6, 5, 2)
	gz := tensor.RandDense(rng, 6, 3, 0.5)
	hetensor.SetTableCacheBudget(64 << 20)
	defer func() {
		hetensor.SetTableCacheBudget(0)
		hetensor.ResetTableCache()
	}()

	backward := func(ca, cb transport.Conn) (*tensor.Dense, hetensor.TableCacheStats) {
		t.Helper()
		hetensor.ResetTableCache()
		a, b, err := PipeOn(ca, cb, skA, skB, 77)
		if err != nil {
			t.Fatal(err)
		}
		a.ChunkRows = 2
		// A key object of the sender's own, so a receiver that reattaches
		// its trusted copy in place is caught.
		pkA := &paillier.PublicKey{N: skA.N, N2: skA.N2}
		var sent []*hetensor.PackedMatrix
		var acc hetensor.Matrix
		err = RunParties(a, b, func() {
			a.sendStream(gz.Rows, gz.Cols, func(lo, hi int) any {
				c := hetensor.PackEncrypt(pkA, gz.RowSlice(lo, hi), 1)
				sent = append(sent, c)
				return c
			})
		}, func() {
			b.RecvMatrixEach(func(lo int, chunk hetensor.Matrix) {
				if acc == nil {
					acc = chunk.NewAcc(x.Cols)
				}
				// Twice: a chunk that kept an identity would be admitted here.
				rows, _ := chunk.Dims()
				hetensor.TransposeMulLeftPacked(x.RowSlice(lo, lo+rows), chunk.(*hetensor.PackedMatrix))
				hetensor.TransposeMulAcc(acc, x.RowSlice(lo, lo+rows), chunk)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range sent {
			if c.PK != pkA {
				t.Fatalf("chunk %d: the receiver rewrote the sender's object", i)
			}
		}
		return acc.Decrypt(skA), hetensor.TableCacheStatsNow()
	}

	pa, pb := transport.Pair(64)
	byPointer, sp := backward(pa, pb)
	na, nb := net.Pipe()
	byGob, sg := backward(transport.NewGobConn(na), transport.NewGobConn(nb))
	if sp != sg {
		t.Fatalf("cache counters differ by transport: Pair %+v, gob %+v", sp, sg)
	}
	if sp.Entries != 0 || sp.Hits != 0 || sp.Misses != 0 {
		t.Fatalf("stats %+v: stream chunks must stay anonymous", sp)
	}
	if want := x.TransposeMatMul(gz); !byPointer.Equal(want, 1e-6) || !byGob.Equal(byPointer, 0) {
		t.Fatalf("backward pass wrong: %v / %v, want %v", byPointer.Data, byGob.Data, want.Data)
	}
}

// hostileStream is one transfer no honest sender produces: a sealed header
// announcing rows×cols in chunks chunks, followed by the chunks given.
type hostileStream struct {
	name               string
	rows, cols, chunks int
	payloads           func(pk *paillier.PublicKey) []any
}

func hostileStreams() []hostileStream {
	enc := func(rows, cols int) func(*paillier.PublicKey) []any {
		return func(pk *paillier.PublicKey) []any { return []any{hetensor.Encrypt(pk, tensor.NewDense(rows, cols), 1)} }
	}
	return []hostileStream{
		{"negative rows", -1, 2, 1, enc(1, 2)},
		{"negative cols", 2, -1, 1, enc(2, 1)},
		{"huge rows", 1 << 40, 2, 1, enc(2, 2)},
		{"rows·cols overflows", 1 << 40, 1 << 40, 1, enc(1, 1)},
		{"chunks ≫ rows", 2, 2, 1000, enc(2, 2)},
		{"chunk taller than announced", 1, 2, 1, enc(2, 2)},
		{"chunk wider than announced", 2, 1, 1, enc(2, 2)},
		{"empty chunk in a non-empty stream", 2, 2, 2, func(pk *paillier.PublicKey) []any {
			return []any{hetensor.Encrypt(pk, tensor.NewDense(0, 2), 1), hetensor.Encrypt(pk, tensor.NewDense(2, 2), 1)}
		}},
		{"kind changes mid-stream", 2, 2, 2, func(pk *paillier.PublicKey) []any {
			return []any{hetensor.Encrypt(pk, tensor.NewDense(1, 2), 1), hetensor.PackEncrypt(pk, tensor.NewDense(1, 2), 1)}
		}},
		{"shape exceeds the ciphertexts sent", 3, 2, 1, func(pk *paillier.PublicKey) []any {
			c := hetensor.Encrypt(pk, tensor.NewDense(1, 2), 1)
			c.Rows = 3
			return []any{c}
		}},
		{"lanes not the key's", 1, 2, 1, func(pk *paillier.PublicKey) []any {
			c := hetensor.PackEncrypt(pk, tensor.NewDense(1, 2), 1)
			c.K, c.Block, c.Cols = 1<<30, 1<<30, 1<<30
			return []any{c}
		}},
		{"not a matrix", 1, 1, 1, func(*paillier.PublicKey) []any { return []any{tensor.NewDense(1, 1)} }},
	}
}

// send writes the hostile transfer to c as stream sequence 0: the sealed
// header as announced, then the payloads there are.
func (h hostileStream) send(c transport.Conn, pk *paillier.PublicKey) error {
	payloads := h.payloads(pk)
	errSent := errors.New("payloads sent")
	err := transport.SendStream(c, 0, h.rows, h.cols, h.chunks, func(i int) (any, error) {
		if i == len(payloads) {
			return nil, errSent
		}
		return payloads[i], nil
	})
	if err == errSent {
		err = c.Send(&transport.StreamEnd{})
	}
	return err
}

// hostileReceiver is a label party on a link whose other end the test holds
// raw.
func hostileReceiver(c transport.Conn) *Peer {
	skA, skB := TestKeys()
	b := NewPeer(PartyB, c, skB, sessionRNG(1, 0, PartyB))
	b.PeerPK = &skA.PublicKey
	return b
}

// allocated returns the bytes f allocated.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestStreamHostileHeaders: whatever the announcement says, every consumer of
// the one receive function ends in one typed error — no panic, and nothing
// allocated beyond the few ciphertexts that really arrived.
func TestStreamHostileHeaders(t *testing.T) {
	_, skB := TestKeys()
	consumers := map[string]func(*Peer){
		"RecvMatrix": func(b *Peer) { b.RecvMatrix() },
		"HE2SSRecv":  func(b *Peer) { b.HE2SSRecv() },
		"SS2HE":      func(b *Peer) { b.SS2HEAs(tensor.NewDense(2, 2), 1, hetensor.Layout{}) },
	}
	for _, h := range hostileStreams() {
		for name, consume := range consumers {
			t.Run(h.name+"/"+name, func(t *testing.T) {
				ca, cb := transport.Pair(16)
				b := hostileReceiver(cb)
				sent := make(chan error, 1)
				go func() { sent <- h.send(ca, &skB.PublicKey) }()
				var err error
				if n := allocated(func() { err = b.Run(func() { consume(b) }) }); n > 4<<20 {
					t.Fatalf("allocated %d bytes for a transfer of a few ciphertexts", n)
				}
				if !errors.Is(err, transport.ErrCorrupt) {
					t.Fatalf("err = %v, want transport.ErrCorrupt", err)
				}
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
