package protocol

import (
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// The one transfer path. Every ciphertext matrix that crosses the link —
// weight pieces, derivatives, both conversions of Algorithms 1 and 2, the
// sparse layer's rows, the serve path's masked products — travels as a
// transport stream: a header, checksummed row-chunks, an end marker and the
// receiver's ack, with one NACK/resend round on a damaged chunk and every
// received ciphertext vetted at this trust boundary. Two identities make one
// path enough:
//
//   - A monolithic transfer is a one-chunk stream. A producing send —
//     EncryptAndSend, HE2SSSend, SS2HEAs — streams at DefaultChunkRows rows a
//     chunk, so the sender encrypts or masks chunk i+1 while chunk i is on
//     the wire and the receiver decrypts or accumulates chunk i−1. SendMatrix
//     has nothing left to produce and ships an assembled matrix as one
//     chunk. Receivers take each chunk's height from the chunk itself, so
//     the framing is the sender's business alone.
//   - Packing travels with the data. A transfer carries a hetensor.Matrix of
//     whichever lane format the encrypting party chose; the receiver
//     decrypts, spot-checks and assembles what arrives.

// DefaultChunkRows is the span of every producing send. Small enough that a
// mini-batch (32–128 rows) splits into several pipeline stages; large enough
// that per-chunk envelope overhead stays negligible against ciphertext
// payloads.
const DefaultChunkRows = 8

// StreamStats aggregates per-chunk accounting for one peer's matrix traffic.
// Bytes are transport.WireSize estimates accumulated per chunk as it is
// handed to the transport, so they are exact in timing (no async writer lag)
// and available on every transport, including the plain Pair.
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

// Flush blocks until the peer has acknowledged every stream this party sent
// (transport.StreamConn.Flush). A party whose round ends on a send calls it
// last, so that a NACK for that send still finds its sender and a transfer
// that cannot be repaired fails on both sides.
func (p *Peer) Flush() {
	if err := p.link().Flush(); err != nil {
		p.Fail("flush: %w", err)
	}
}

// sendStream ships one logical rows×cols matrix as lazily produced row-chunks
// of span rows (0: one chunk), recording per-chunk accounting.
// produce(lo, hi) is called only after the previous chunk was handed to the
// transport. An empty matrix still ships one (empty) chunk.
//
// BytesSent counts the full wire footprint of the stream — header, chunk
// envelopes (sequence numbers and checksums included) and end marker, not
// just the chunk payloads — so the bench traffic tables report what actually
// crosses the link.
func (p *Peer) sendStream(rows, cols, span int, produce func(lo, hi int) any) {
	chunks := 1
	if span <= 0 || span > rows {
		span = rows
	}
	if rows > 0 {
		chunks = (rows + span - 1) / span
	}
	seq := p.sendSeq
	p.sendSeq++
	p.Stream.BytesSent += int64(transport.WireSize(&transport.StreamHeader{}))
	err := transport.SendStream(p.link(), seq, rows, cols, chunks, func(i int) (any, error) {
		v := produce(i*span, min(i*span+span, rows))
		p.Stream.BytesSent += int64(transport.WireSize(&transport.StreamChunk{V: v}))
		return v, nil
	})
	if err != nil {
		p.Fail("stream send: %w", err)
	}
	p.Stream.BytesSent += int64(transport.WireSize(&transport.StreamEnd{}))
	p.Stream.StreamsSent++
	p.Stream.ChunksSent += int64(chunks)
}

// recvStream is the one receive function: it takes one transfer off the
// link, timing the blocking waits and recording per-chunk accounting, and
// hands consume each chunk in row order with the rows received before it.
// A chunk reaches consume only as a vetted, anonymous hetensor.Matrix under
// the locally trusted copy of its key, in the first chunk's layout, as wide
// as announced and inside the announced height; anything else is a typed
// transport.ErrCorrupt. What a consumer builds therefore grows with chunks
// that really arrived, never with what the header (whose dimensions the
// transport has bounded) merely announced.
func (p *Peer) recvStream(consume func(h *transport.StreamHeader, lo int, c *hetensor.Matrix)) {
	seq := p.recvSeq
	p.recvSeq++
	start := time.Now()
	wait := time.Duration(0)
	off := 0
	var first *hetensor.Matrix
	h, err := transport.RecvStream(p.link(), seq, func(h *transport.StreamHeader, i int, v any) error {
		wait += time.Since(start)
		c := p.trusted(v)
		if first == nil {
			first = c
		}
		// A zero-row chunk is valid only as the sole chunk of an empty
		// stream (the sender always ships at least one chunk).
		if !first.SameLayout(c) || c.Cols != h.Cols || c.Rows > h.Rows-off || (c.Rows == 0 && h.Rows > 0) {
			p.Fail("stream recv: %w: chunk of %d×%d at row %d does not continue a %d×%d stream",
				transport.ErrCorrupt, c.Rows, c.Cols, off, h.Rows, h.Cols)
		}
		consume(h, off, c)
		off += c.Rows
		start = time.Now()
		return nil
	})
	if err != nil {
		p.Fail("stream recv: %w", err)
	}
	if off != h.Rows {
		p.Fail("stream recv: %w: stream delivered %d of %d announced rows", transport.ErrCorrupt, off, h.Rows)
	}
	p.Stream.StreamsRecv++
	p.Stream.ChunksRecv += int64(h.Chunks)
	p.Stream.RecvWait += wait
	// The receive side of every stream sends one ack back (transport layer);
	// count it so both directions' BytesSent stay envelope-honest.
	p.Stream.BytesSent += int64(transport.WireSize(&transport.StreamAck{}))
}

// trusted turns a chunk payload into a matrix this party may compute on: an
// anonymous copy (the in-process transports deliver the sender's own object,
// whose minted identity gob would have dropped and whose key field is not
// this party's to rewrite) carrying the local copy of whichever session key
// it claims, vetted against it. Out-of-range or non-invertible cells fail
// here with a typed transport.ErrCorrupt instead of panicking deep inside a
// homomorphic kernel. Chunks stay identity-less: a chunk is a single-use view
// that never recurs, and minting one per chunk would fill the persistent
// table cache with unreachable entries; RecvMatrix mints the assembled whole.
func (p *Peer) trusted(v any) *hetensor.Matrix {
	c, ok := v.(*hetensor.Matrix)
	if !ok || c == nil {
		p.Fail("stream recv: %w: want an encrypted matrix chunk, got %T", transport.ErrCorrupt, v)
	}
	c = c.Anonymous()
	pk := p.PeerPK
	if k := c.PK; k == nil || k.N == nil {
		p.Fail("stream recv: %w: matrix carries no public key", transport.ErrCorrupt)
	} else if k.N.Cmp(p.SK.N) == 0 {
		pk = &p.SK.PublicKey
	}
	if err := c.Trust(pk); err != nil {
		p.Fail("stream recv: %w: %v", transport.ErrCorrupt, err)
	}
	return c
}

// SendMatrix ships an already-assembled matrix in one chunk: its rows exist
// before the send starts, so there is no production to overlap with the wire.
func (p *Peer) SendMatrix(m *hetensor.Matrix) {
	p.sendStream(m.Rows, m.Cols, 0, func(lo, hi int) any { return m.RowSlice(lo, hi) })
}

// EncryptAndSend encrypts d under this party's own key in the layout the
// caller's engine options and the consumer's kernels call for, chunk by
// chunk: the encryption of chunk i+1 overlaps the wire (and the peer's
// handling) of chunk i.
func (p *Peer) EncryptAndSend(d *tensor.Dense, scale uint, l hetensor.Layout) {
	p.sendStream(d.Rows, d.Cols, p.span, func(lo, hi int) any {
		return hetensor.EncryptAs(&p.SK.PublicKey, d.RowSlice(lo, hi), scale, l)
	})
}

// RecvMatrix assembles a transfer into one matrix in whichever lanes arrived
// and mints it a receiver-local table-cache identity: its cells are never
// replaced locally, so the persistent dot-table cache may key tables to it.
// For the paths (weight exchange and refresh) where the receiver stores the
// matrix.
func (p *Peer) RecvMatrix() *hetensor.Matrix {
	var out *hetensor.Matrix
	p.RecvMatrixEach(func(_ int, c *hetensor.Matrix) {
		if out == nil {
			out = c.RowSlice(0, 0)
		}
		out.Append(c)
	})
	out.MintID()
	return out
}

// RecvMatrixEach receives a transfer without assembling it: each chunk is
// handed to fn with its starting row, so the consumer can decrypt or
// accumulate chunk i while the sender produces chunk i+1.
func (p *Peer) RecvMatrixEach(fn func(lo int, chunk *hetensor.Matrix)) {
	p.recvStream(func(_ *transport.StreamHeader, lo int, c *hetensor.Matrix) { fn(lo, c) })
}

// HE2SSSend is the masking half of Algorithm 1, run by the party that holds
// ⟦v⟧ under the *peer's* key: draw the mask φ up front, send ⟦v−φ⟧ freshly
// re-randomized chunk by chunk, and keep φ as this party's share of v. The
// key owner decrypts chunk i while this party blinds chunk i+1.
func (p *Peer) HE2SSSend(c *hetensor.Matrix) *tensor.Dense {
	phi := p.Mask(c.Rows, c.Cols)
	p.sendStream(c.Rows, c.Cols, p.span, func(lo, hi int) any {
		return c.RowSlice(lo, hi).SubPlainFresh(phi.RowSlice(lo, hi))
	})
	return phi
}

// HE2SSRecv is the decrypting half of Algorithm 1, run by the key owner:
// decrypt each arriving chunk of ⟦v−φ⟧ as this party's share of v while the
// peer blinds the next one. One derived row of a sampled conversion is
// spot-checked (when enabled) inside the chunk that carries it — chunk
// payloads are transient, so the check must run before the ciphertexts go
// out of scope.
func (p *Peer) HE2SSRecv() *tensor.Dense {
	var out *tensor.Dense
	spot := -1
	p.recvStream(func(h *transport.StreamHeader, lo int, c *hetensor.Matrix) {
		if c.PK != &p.SK.PublicKey { // trusted attaches this very object, or the peer's
			p.Fail("HE2SSRecv: ciphertext is not under this party's key")
		}
		d := c.Decrypt(p.SK)
		if out == nil {
			out = d
			if p.SpotCheck && h.Rows > 0 && p.spotSample() {
				spot = p.spotRow(h.Rows)
			}
		} else {
			out.Data = append(out.Data, d.Data...)
			out.Rows += d.Rows
		}
		if spot >= lo && spot < out.Rows {
			p.Stream.SpotChecks++
			if !c.VerifyRow(p.SK, spot-lo, out.Row(spot)) {
				p.Stream.SpotMismatches++
			}
		}
	})
	return out
}

// SS2HEAs is Algorithm 2: both parties hold one additive piece of v; each
// sends the encryption of its piece under its own key, in the layout it
// chooses as for EncryptAndSend, and returns ⟦v⟧ under the *peer's* key, in
// the layout the peer chose, by homomorphically adding its own plaintext
// piece to the peer's chunks as they arrive. Party A sends first.
func (p *Peer) SS2HEAs(piece *tensor.Dense, scale uint, l hetensor.Layout) *hetensor.Matrix {
	recv := func() *hetensor.Matrix {
		var out *hetensor.Matrix
		p.recvStream(func(h *transport.StreamHeader, lo int, c *hetensor.Matrix) {
			if c.Scale != scale || h.Rows != piece.Rows || h.Cols != piece.Cols {
				p.Fail("SS2HE: %w: peer's piece is not a %d×%d matrix at scale %d",
					transport.ErrCorrupt, piece.Rows, piece.Cols, scale)
			}
			sum := c.AddPlain(piece.RowSlice(lo, lo+c.Rows))
			if out == nil {
				out = sum
			} else {
				out.Append(sum)
			}
		})
		return out
	}
	if p.Role == PartyA {
		p.EncryptAndSend(piece, scale, l)
		return recv()
	}
	out := recv()
	p.EncryptAndSend(piece, scale, l)
	return out
}
