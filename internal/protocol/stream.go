package protocol

import (
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Chunk-streamed conversions: the streamed counterparts of the monolithic
// Send/Recv/HE2SS/SS2HE helpers. A large CipherMatrix/PackedMatrix transfer
// is split into bounded row-chunks (transport.StreamHeader/StreamChunk with
// per-direction sequence numbers), and the expensive per-chunk work —
// encryption and masking on the sender, decryption and gradient accumulation
// on the receiver — is done lazily per chunk. The sender therefore encrypts
// chunk i+1 while chunk i is on the wire and the receiver works on chunk i−1:
// the two halves of a conversion overlap instead of running back to back.
//
// Both parties must agree on whether a given transfer is streamed (a streamed
// send must meet a streamed receive), exactly as they must agree on packing.
// Chunk sizing, in contrast, is sender-local: receivers take each chunk's
// height from the payload itself, so peers with different ChunkRows still
// interoperate.

// DefaultChunkRows is the row bound per streamed chunk when Peer.ChunkRows
// is zero. Small enough that a mini-batch (32–128 rows) splits into several
// pipeline stages; large enough that per-chunk envelope overhead stays
// negligible against ciphertext payloads.
const DefaultChunkRows = 8

// StreamStats aggregates per-chunk accounting for one peer's streamed
// traffic. Bytes are transport.WireSize estimates accumulated per chunk as
// it is handed to the transport, so they are exact in timing (no async
// writer lag) and available on every transport, including the plain Pair.
type StreamStats struct {
	StreamsSent int64
	ChunksSent  int64
	BytesSent   int64
	StreamsRecv int64
	ChunksRecv  int64
	RecvWait    time.Duration // cumulative time blocked waiting for chunks

	// Decrypt spot-check outcomes (spotcheck.go): rows re-verified through
	// the exact-integer path and how many of them disagreed.
	SpotChecks     int64
	SpotMismatches int64

	// AN-coded residue-check outcomes (Peer.ANCheck, engine option
	// "ancheck"): plaintext share cells recomputed mod the AN prime alongside
	// the exact-integer serve arithmetic, and how many disagreed. A non-zero
	// mismatch count means the share arithmetic itself corrupted (bad RAM, a
	// broken kernel) — the failure class the wire checksums cannot see.
	ANChecks     int64
	ANMismatches int64
}

// chunkSpan returns the agreed chunk row bound.
func (p *Peer) chunkSpan() int {
	if p.ChunkRows > 0 {
		return p.ChunkRows
	}
	return DefaultChunkRows
}

// chunkBounds returns the row range of chunk i for a rows-tall matrix.
func chunkBounds(rows, span, i int) (lo, hi int) {
	lo = i * span
	hi = lo + span
	if hi > rows {
		hi = rows
	}
	return lo, hi
}

func chunkCount(rows, span int) int {
	if rows <= 0 {
		return 1
	}
	return (rows + span - 1) / span
}

// sendStream ships one logical rows×cols matrix as lazily produced
// row-chunks, recording per-chunk accounting. produce(lo, hi) is called only
// after the previous chunk was handed to the transport.
//
// BytesSent counts the full wire footprint of the stream — header, chunk
// envelopes (sequence numbers and checksums included) and end marker, not
// just the chunk payloads — so the bench traffic tables report what actually
// crosses the link.
func (p *Peer) sendStream(rows, cols int, produce func(lo, hi int) any) {
	span := p.chunkSpan()
	chunks := chunkCount(rows, span)
	seq := p.sendSeq
	p.sendSeq++
	p.Stream.BytesSent += int64(transport.WireSize(&transport.StreamHeader{}))
	err := transport.SendStream(p.Conn, seq, rows, cols, chunks, func(i int) (any, error) {
		lo, hi := chunkBounds(rows, span, i)
		v := produce(lo, hi)
		p.Stream.BytesSent += int64(transport.WireSize(&transport.StreamChunk{V: v}))
		return v, nil
	})
	if err != nil {
		p.fail("stream send: %w", err)
	}
	p.Stream.BytesSent += int64(transport.WireSize(&transport.StreamEnd{}))
	p.Stream.StreamsSent++
	p.Stream.ChunksSent += int64(chunks)
}

// recvStream receives one chunked transfer, timing the blocking waits and
// recording per-chunk accounting. consume sees chunks in row order with the
// running row offset and returns how many rows the chunk held; the chunk
// layout is taken from the stream itself (each payload knows its height), so
// the receiver adapts to whatever ChunkRows the sender chose.
func (p *Peer) recvStream(consume func(h *transport.StreamHeader, lo int, v any) int) *transport.StreamHeader {
	seq := p.recvSeq
	p.recvSeq++
	start := time.Now()
	wait := time.Duration(0)
	off := 0
	h, err := transport.RecvStream(p.Conn, seq, func(h *transport.StreamHeader, i int, v any) error {
		wait += time.Since(start)
		rows := consume(h, off, v)
		// A zero-row chunk is valid only as the sole chunk of an empty
		// stream (the sender always ships at least one chunk).
		if rows < 0 || off+rows > h.Rows || (rows == 0 && h.Rows > 0) {
			p.fail("stream recv: chunk of %d rows at offset %d overflows %d announced rows", rows, off, h.Rows)
		}
		off += rows
		start = time.Now()
		return nil
	})
	if err != nil {
		p.fail("stream recv: %w", err)
	}
	if off != h.Rows {
		p.fail("stream recv: stream delivered %d of %d announced rows", off, h.Rows)
	}
	p.Stream.StreamsRecv++
	p.Stream.ChunksRecv += int64(h.Chunks)
	p.Stream.RecvWait += wait
	// The receive side of every stream sends one ack back (transport layer);
	// count it so both directions' BytesSent stay envelope-honest.
	p.Stream.BytesSent += int64(transport.WireSize(&transport.StreamAck{}))
	return h
}

// trustCipher reattaches the locally trusted public key, as RecvCipher
// does for monolithic transfers, and vets every ciphertext against it
// (spotcheck.go): out-of-range or non-invertible cells fail here, at the
// trust boundary, with a typed transport.ErrCorrupt instead of panicking
// deep inside a homomorphic kernel. Table-cache identities are minted by the
// whole-matrix receive paths (RecvCipher, RecvCipherStream), NOT here:
// stream chunks pass through this helper too, and a chunk is a single-use
// view that never recurs — minting per chunk would fill the persistent
// cache with unreachable entries and evict the genuinely reusable ones.
func (p *Peer) trustCipher(c *hetensor.CipherMatrix) {
	if c.PK == nil || c.PK.N == nil {
		p.fail("recv cipher: %w: matrix carries no public key", transport.ErrCorrupt)
	}
	if c.PK.N.Cmp(p.SK.N) == 0 {
		c.PK = &p.SK.PublicKey
	} else {
		c.PK = p.PeerPK
	}
	p.vetCells(c.C, c.PK, "recv cipher")
}

func (p *Peer) trustPacked(c *hetensor.PackedMatrix) {
	if c.PK == nil || c.PK.N == nil {
		p.fail("recv packed: %w: matrix carries no public key", transport.ErrCorrupt)
	}
	if c.PK.N.Cmp(p.SK.N) == 0 {
		c.PK = &p.SK.PublicKey
	} else {
		c.PK = p.PeerPK
	}
	p.vetCells(c.C, c.PK, "recv packed")
}

// cipherChunk asserts a stream payload is a cipher matrix chunk and
// reattaches the trusted key — on an anonymous copy: the in-process
// transports deliver the sender's own object, whose minted identity gob
// would have dropped and whose PK field is not this party's to rewrite.
func (p *Peer) cipherChunk(v any) *hetensor.CipherMatrix {
	c, ok := v.(*hetensor.CipherMatrix)
	if !ok {
		p.fail("stream recv: want *hetensor.CipherMatrix chunk, got %T", v)
	}
	c = c.Anonymous()
	p.trustCipher(c)
	return c
}

func (p *Peer) packedChunk(v any) *hetensor.PackedMatrix {
	c, ok := v.(*hetensor.PackedMatrix)
	if !ok {
		p.fail("stream recv: want *hetensor.PackedMatrix chunk, got %T", v)
	}
	c = c.Anonymous()
	p.trustPacked(c)
	return c
}

// EncryptAndSendStream encrypts d under this party's own key chunk by chunk
// and streams the chunks: the encryption of chunk i+1 overlaps the wire (and
// the peer's handling) of chunk i.
func (p *Peer) EncryptAndSendStream(d *tensor.Dense, scale uint) {
	p.sendStream(d.Rows, d.Cols, func(lo, hi int) any {
		return hetensor.Encrypt(&p.SK.PublicKey, d.RowSlice(lo, hi), scale)
	})
}

// EncryptAndSendPackedStream is EncryptAndSendStream with packed chunks.
func (p *Peer) EncryptAndSendPackedStream(d *tensor.Dense, scale uint) {
	p.sendStream(d.Rows, d.Cols, func(lo, hi int) any {
		return hetensor.PackEncryptBlocks(&p.SK.PublicKey, d.RowSlice(lo, hi), scale, d.Cols)
	})
}

// SendCipherStream streams an already-assembled cipher matrix as row-chunk
// views (no recompute; the gain is wire/consumer overlap only).
func (p *Peer) SendCipherStream(c *hetensor.CipherMatrix) {
	p.sendStream(c.Rows, c.Cols, func(lo, hi int) any { return c.RowSlice(lo, hi) })
}

// RecvCipherStream assembles a streamed cipher matrix, reattaching the
// trusted public key. The streamed counterpart of RecvCipher, used on paths
// (weight refresh) where the receiver only stores the matrix.
func (p *Peer) RecvCipherStream() *hetensor.CipherMatrix {
	var out *hetensor.CipherMatrix
	p.recvStream(func(h *transport.StreamHeader, lo int, v any) int {
		c := p.cipherChunk(v)
		if out == nil {
			out = &hetensor.CipherMatrix{Rows: h.Rows, Cols: h.Cols, Scale: c.Scale, PK: c.PK,
				C: make([]*paillier.Ciphertext, h.Rows*h.Cols)}
		}
		if c.Cols != out.Cols || c.Scale != out.Scale {
			p.fail("stream recv: chunk layout %d cols @%d, want %d @%d", c.Cols, c.Scale, out.Cols, out.Scale)
		}
		copy(out.C[lo*out.Cols:], c.C)
		return c.Rows
	})
	if out != nil {
		out.MintID() // assembled in full before use: a stable base set
	}
	return out
}

// RecvPackedStream assembles a streamed packed matrix.
func (p *Peer) RecvPackedStream() *hetensor.PackedMatrix {
	var out *hetensor.PackedMatrix
	p.recvStream(func(h *transport.StreamHeader, lo int, v any) int {
		c := p.packedChunk(v)
		if out == nil {
			out = &hetensor.PackedMatrix{Rows: h.Rows, Cols: h.Cols, Block: c.Block, Scale: c.Scale,
				W: c.W, K: c.K, PK: c.PK,
				C: make([]*paillier.Ciphertext, h.Rows*c.GroupsPerRow())}
		}
		if c.Cols != out.Cols || c.Block != out.Block || c.W != out.W || c.K != out.K || c.Scale != out.Scale {
			p.fail("stream recv: packed chunk layout mismatch")
		}
		copy(out.C[lo*out.GroupsPerRow():], c.C)
		return c.Rows
	})
	if out != nil {
		out.MintID()
	}
	return out
}

// RecvCipherStreamEach receives a streamed cipher matrix without assembling
// it: each row-chunk (trusted key reattached) is handed to fn with its
// starting row, so the consumer can decrypt or accumulate chunk i while the
// sender produces chunk i+1. Returns the logical shape.
func (p *Peer) RecvCipherStreamEach(fn func(lo int, chunk *hetensor.CipherMatrix)) (rows, cols int) {
	h := p.recvStream(func(h *transport.StreamHeader, lo int, v any) int {
		c := p.cipherChunk(v)
		fn(lo, c)
		return c.Rows
	})
	return h.Rows, h.Cols
}

// RecvPackedStreamEach is RecvCipherStreamEach for packed chunks.
func (p *Peer) RecvPackedStreamEach(fn func(lo int, chunk *hetensor.PackedMatrix)) (rows, cols int) {
	h := p.recvStream(func(h *transport.StreamHeader, lo int, v any) int {
		c := p.packedChunk(v)
		fn(lo, c)
		return c.Rows
	})
	return h.Rows, h.Cols
}

// HE2SSSendStream is the streamed masking half of Algorithm 1: draw the mask
// φ up front, then per row-chunk freshly re-randomize ⟦v−φ⟧ and stream it.
// The key owner decrypts chunk i while this party blinds chunk i+1.
func (p *Peer) HE2SSSendStream(c *hetensor.CipherMatrix) *tensor.Dense {
	phi := p.Mask(c.Rows, c.Cols)
	p.sendStream(c.Rows, c.Cols, func(lo, hi int) any {
		return c.RowSlice(lo, hi).SubPlainFresh(phi.RowSlice(lo, hi))
	})
	return phi
}

// HE2SSRecvStream is the streamed decrypting half of Algorithm 1: decrypt
// each arriving chunk of ⟦v−φ⟧ while the peer blinds the next one. One
// derived row per stream is spot-checked (when enabled) inside the chunk
// that carries it — chunk payloads are transient, so the check must run
// before the ciphertexts go out of scope.
func (p *Peer) HE2SSRecvStream() *tensor.Dense {
	var out *tensor.Dense
	spot := -1
	p.recvStream(func(h *transport.StreamHeader, lo int, v any) int {
		c := p.cipherChunk(v)
		if c.PK.N.Cmp(p.SK.N) != 0 {
			p.fail("HE2SSRecvStream: ciphertext is not under this party's key")
		}
		if out == nil {
			out = tensor.NewDense(h.Rows, h.Cols)
			if p.SpotCheck && h.Rows > 0 && p.spotSample() {
				spot = p.spotRow(h.Rows)
			}
		}
		copy(out.RowSlice(lo, lo+c.Rows).Data, hetensor.Decrypt(p.SK, c).Data)
		if spot >= lo && spot < lo+c.Rows {
			p.recordSpot(p.spotRowCipher(c.RowSlice(spot-lo, spot-lo+1), out.Row(spot)))
		}
		return c.Rows
	})
	return out
}

// HE2SSSendPackedStream is HE2SSSendStream over packed ciphertexts.
func (p *Peer) HE2SSSendPackedStream(c *hetensor.PackedMatrix) *tensor.Dense {
	phi := p.Mask(c.Rows, c.Cols)
	p.sendStream(c.Rows, c.Cols, func(lo, hi int) any {
		return c.RowSlice(lo, hi).SubPlainFresh(phi.RowSlice(lo, hi))
	})
	return phi
}

// HE2SSRecvPackedStream is HE2SSRecvStream over packed ciphertexts, with the
// same per-stream decrypt spot-check on one derived row.
func (p *Peer) HE2SSRecvPackedStream() *tensor.Dense {
	var out *tensor.Dense
	spot := -1
	p.recvStream(func(h *transport.StreamHeader, lo int, v any) int {
		c := p.packedChunk(v)
		if c.PK.N.Cmp(p.SK.N) != 0 {
			p.fail("HE2SSRecvPackedStream: ciphertext is not under this party's key")
		}
		if out == nil {
			out = tensor.NewDense(h.Rows, h.Cols)
			if p.SpotCheck && h.Rows > 0 && p.spotSample() {
				spot = p.spotRow(h.Rows)
			}
		}
		copy(out.RowSlice(lo, lo+c.Rows).Data, hetensor.DecryptPacked(p.SK, c).Data)
		if spot >= lo && spot < lo+c.Rows {
			p.recordSpot(p.spotRowPacked(c.RowSlice(spot-lo, spot-lo+1), out.Row(spot)))
		}
		return c.Rows
	})
	return out
}

// SS2HEStream is the streamed Algorithm 2: each party streams the chunked
// encryption of its additive piece (encrypting chunk i+1 while chunk i is in
// flight) and adds its plaintext piece to the peer's chunks as they arrive.
// Party A sends first, as in SS2HE.
func (p *Peer) SS2HEStream(piece *tensor.Dense, scale uint) *hetensor.CipherMatrix {
	recv := func() *hetensor.CipherMatrix {
		out := hetensor.NewCipherMatrix(p.PeerPK, piece.Rows, piece.Cols, scale)
		p.RecvCipherStreamEach(func(lo int, chunk *hetensor.CipherMatrix) {
			if chunk.Scale != scale {
				p.fail("SS2HEStream: chunk scale %d, want %d", chunk.Scale, scale)
			}
			sum := chunk.AddPlain(piece.RowSlice(lo, lo+chunk.Rows))
			copy(out.C[lo*out.Cols:], sum.C)
		})
		return out
	}
	if p.Role == PartyA {
		p.EncryptAndSendStream(piece, scale)
		return recv()
	}
	out := recv()
	p.EncryptAndSendStream(piece, scale)
	return out
}
