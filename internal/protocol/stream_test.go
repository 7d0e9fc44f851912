package protocol

import (
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Streamed conversions must reconstruct exactly what the monolithic ones do.

func TestHE2SSStreamReconstruction(t *testing.T) {
	a, b := newPipe(t, 40)
	a.ChunkRows, b.ChunkRows = 2, 2
	v := tensor.FromSlice(5, 2, []float64{1.5, -2.25, 3, 0, -7.5, 0.125, 42, -1, 2, 9})
	var shareA, shareB *tensor.Dense
	err := RunParties(a, b, func() {
		c := hetensor.Encrypt(a.PeerPK, v, 1)
		shareA = a.HE2SSSendStream(c)
	}, func() {
		shareB = b.HE2SSRecvStream()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := shareA.Add(shareB)
	if !got.Equal(v, 1e-9) {
		t.Fatalf("streamed HE2SS shares do not reconstruct v: %v", got.Data)
	}
}

func TestHE2SSPackedStreamReconstruction(t *testing.T) {
	a, b := newPipe(t, 41)
	a.ChunkRows, b.ChunkRows = 2, 2
	v := tensor.FromSlice(5, 3, []float64{
		1.5, -2.25, 3, 0, -7.5, 0.125, 42, -1, 2, 9, -0.5, 4, 1, 2, 3})
	var shareA, shareB *tensor.Dense
	err := RunParties(a, b, func() {
		c := hetensor.PackEncrypt(a.PeerPK, v, 1)
		shareA = a.HE2SSSendPackedStream(c)
	}, func() {
		shareB = b.HE2SSRecvPackedStream()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := shareA.Add(shareB)
	if !got.Equal(v, 1e-9) {
		t.Fatalf("streamed packed HE2SS shares do not reconstruct v: %v", got.Data)
	}
}

func TestSS2HEStreamMatchesPieces(t *testing.T) {
	a, b := newPipe(t, 42)
	a.ChunkRows, b.ChunkRows = 2, 2
	pieceA := tensor.FromSlice(5, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pieceB := tensor.FromSlice(5, 2, []float64{-0.5, 1, 0, 2, -3, 4, 0.25, -1, 7, 0})
	want := pieceA.Add(pieceB)

	var atB, atA *tensor.Dense
	err := RunParties(a, b, func() {
		enc := a.SS2HEStream(pieceA, 1) // ⟦v⟧ under B's key
		// Ship it back so B (the key owner) can decrypt and we can verify.
		a.Send(enc)
	}, func() {
		enc := b.SS2HEStream(pieceB, 1) // ⟦v⟧ under A's key
		atB = hetensor.Decrypt(b.SK, b.RecvCipher())
		b.Send(enc)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = a.Run(func() {
		atA = hetensor.Decrypt(a.SK, a.RecvCipher())
	})
	if err != nil {
		t.Fatal(err)
	}
	if !atB.Equal(want, 1e-9) || !atA.Equal(want, 1e-9) {
		t.Fatalf("SS2HEStream results diverge: %v / %v want %v", atB.Data, atA.Data, want.Data)
	}
}

// TestStreamRecvRejectsOwnKeyViolation mirrors the monolithic foreign-key
// guard on the streamed path.
func TestStreamRecvRejectsOwnKeyViolation(t *testing.T) {
	a, b := newPipe(t, 43)
	err := RunParties(a, b,
		func() {
			// Wrongly stream a ciphertext under A's own key to the decryptor.
			a.HE2SSSendStream(hetensor.Encrypt(&a.SK.PublicKey, tensor.NewDense(3, 1), 1))
		},
		func() {
			b.HE2SSRecvStream()
		})
	if err == nil || !strings.Contains(err.Error(), "not under this party's key") {
		t.Fatalf("err = %v", err)
	}
}

// TestStreamStatsAccounting checks the per-chunk counters the bench tables
// report: chunk counts on both sides and a receive-wait measurement.
func TestStreamStatsAccounting(t *testing.T) {
	a, b := newPipe(t, 44)
	a.ChunkRows, b.ChunkRows = 2, 2
	v := tensor.FromSlice(7, 1, []float64{1, 2, 3, 4, 5, 6, 7})
	err := RunParties(a, b,
		func() { a.EncryptAndSendStream(v, 1) },
		func() { b.RecvCipherStream() })
	if err != nil {
		t.Fatal(err)
	}
	if a.Stream.StreamsSent != 1 || a.Stream.ChunksSent != 4 {
		t.Fatalf("sender stats = %+v, want 1 stream / 4 chunks", a.Stream)
	}
	if b.Stream.StreamsRecv != 1 || b.Stream.ChunksRecv != 4 {
		t.Fatalf("receiver stats = %+v, want 1 stream / 4 chunks", b.Stream)
	}
	if b.Stream.RecvWait < 0 {
		t.Fatalf("negative recv wait %v", b.Stream.RecvWait)
	}
}

// TestStreamedRefreshRoundTrip pins RecvCipherStream assembly: the receiver
// stores the chunked matrix (as the refresh paths do), ships it back, and
// the key owner's decryption must reproduce the plaintext exactly.
func TestStreamedRefreshRoundTrip(t *testing.T) {
	a, b := newPipe(t, 45)
	a.ChunkRows, b.ChunkRows = 3, 3
	v := tensor.FromSlice(8, 2, []float64{
		0.5, -1, 2, 3, -4.25, 5, 6, -7, 8, 9.5, -10, 11, 12, -13, 14, 15})
	var got *tensor.Dense
	err := RunParties(a, b,
		func() {
			a.EncryptAndSendStream(v, 1)
			got = hetensor.Decrypt(a.SK, a.RecvCipher())
		},
		func() { b.Send(b.RecvCipherStream()) })
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v, 1e-9) {
		t.Fatalf("streamed refresh decrypts to %v", got.Data)
	}

	var gotPacked *tensor.Dense
	err = RunParties(a, b,
		func() {
			a.EncryptAndSendPackedStream(v, 1)
			gotPacked = hetensor.DecryptPacked(a.SK, a.RecvPacked())
		},
		func() { b.Send(b.RecvPackedStream()) })
	if err != nil {
		t.Fatal(err)
	}
	if !gotPacked.Equal(v, 1e-9) {
		t.Fatalf("streamed packed refresh decrypts to %v", gotPacked.Data)
	}
}

// TestStreamMismatchedChunkRowsInterop pins that chunk sizing is
// sender-local: receivers take each chunk's height from the payload, so
// peers configured with different ChunkRows still reconstruct correctly.
func TestStreamMismatchedChunkRowsInterop(t *testing.T) {
	a, b := newPipe(t, 47)
	a.ChunkRows, b.ChunkRows = 3, 5 // sender chunks by 3; receiver set differently
	v := tensor.FromSlice(7, 2, []float64{1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13, -14})
	var shareA, shareB *tensor.Dense
	err := RunParties(a, b, func() {
		shareA = a.HE2SSSendStream(hetensor.Encrypt(a.PeerPK, v, 1))
	}, func() {
		shareB = b.HE2SSRecvStream()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := shareA.Add(shareB); !got.Equal(v, 1e-9) {
		t.Fatalf("mismatched-chunk shares do not reconstruct v: %v", got.Data)
	}
}

// TestStreamSingleRowMatrix pins the degenerate chunking case (rows <
// ChunkRows: one chunk).
func TestStreamSingleRowMatrix(t *testing.T) {
	a, b := newPipe(t, 46)
	v := tensor.FromSlice(1, 3, []float64{math.Pi, -1, 0.5})
	var got *tensor.Dense
	err := RunParties(a, b,
		func() {
			a.EncryptAndSendStream(v, 1)
			got = hetensor.Decrypt(a.SK, a.RecvCipher())
		},
		func() { b.Send(b.RecvCipherStream()) })
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v, 1e-9) {
		t.Fatalf("single-chunk stream decrypts to %v", got.Data)
	}
}

// TestStreamChunksAnonymousOnEveryTransport: a streamed packed backward pass
// must look the same to the dot-table cache whether its ⟦∇Z⟧ chunks arrive by
// pointer (transport.Pair hands over the sender's own object, minted identity
// and all) or through gob (which drops the identity): no lookups, no ghosts,
// no inserts. The receiver must also leave the sender's object alone.
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
		a.ChunkRows, b.ChunkRows = 2, 2
		// A key object of the sender's own, so a receiver that reattaches
		// its trusted copy in place is caught.
		pkA := &paillier.PublicKey{N: skA.N, N2: skA.N2}
		var sent []*hetensor.PackedMatrix
		var acc *hetensor.PackedMatrix
		err = RunParties(a, b, func() {
			a.sendStream(gz.Rows, gz.Cols, func(lo, hi int) any {
				c := hetensor.PackEncryptBlocks(pkA, gz.RowSlice(lo, hi), 1, gz.Cols)
				sent = append(sent, c)
				return c
			})
		}, func() {
			b.RecvPackedStreamEach(func(lo int, chunk *hetensor.PackedMatrix) {
				if acc == nil {
					acc = hetensor.NewPackedMatrix(chunk.PK, x.Cols, chunk.Cols, chunk.Block, chunk.Scale+1)
				}
				// Twice: a chunk that kept an identity would be admitted here.
				hetensor.TransposeMulLeftPacked(x.RowSlice(lo, lo+chunk.Rows), chunk)
				hetensor.TransposeMulLeftPackedAcc(acc, x.RowSlice(lo, lo+chunk.Rows), chunk)
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
		return hetensor.DecryptPacked(skA, acc), hetensor.TableCacheStatsNow()
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
