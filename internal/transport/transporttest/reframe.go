// Package transporttest holds test doubles for the link under a protocol
// session.
package transporttest

import (
	"fmt"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Framing is how a Reframe link ships a stream: Span rows a chunk (0: the
// whole transfer in one), and the lanes as sent if Packed, else one value per
// ciphertext.
type Framing struct {
	Packed bool
	Span   int
}

// Chunks is how many chunks a rows-tall transfer takes under f.
func (f Framing) Chunks(rows int) int {
	if f.Span <= 0 || f.Span >= rows {
		return 1
	}
	return (rows + f.Span - 1) / f.Span
}

// Reframe is a party's outgoing link as a peer that frames and packs
// otherwise would have it: the engine packs what it encrypts and streams at
// a span of its own, and every receiver must take a transfer as it comes. It
// holds each stream sent through it until the end marker, then ships the
// same rows again under its Framing — unpacked by decrypting each lane
// exactly with the keys it was given and encrypting it alone, so each value
// is the very integer it was. Everything else passes as it is.
//
// Only for fault-free links: a retransmission request would name chunks of
// the reframed stream, which the engine's own stream connection does not
// hold.
type Reframe struct {
	transport.Conn
	f    Framing
	keys []*paillier.PrivateKey
	out  *transport.StreamConn // frames the reshaped streams onto the link
	h    *transport.StreamHeader
	held []*hetensor.Matrix
}

// NewReframe wraps c. keys must hold the private key of every matrix the
// link may have to unpack.
func NewReframe(c transport.Conn, f Framing, keys ...*paillier.PrivateKey) *Reframe {
	return &Reframe{Conn: c, f: f, keys: keys, out: transport.NewStreamConn(c)}
}

func (r *Reframe) Send(v any) error {
	switch m := v.(type) {
	case *transport.StreamHeader:
		r.h, r.held = m, nil
		return nil
	case *transport.StreamChunk:
		c, ok := m.V.(*hetensor.Matrix)
		if !ok {
			return fmt.Errorf("transporttest: stream chunk of %T", m.V)
		}
		r.held = append(r.held, c)
		return nil
	case *transport.StreamEnd:
		var whole *hetensor.Matrix
		for _, c := range r.held {
			if !r.f.Packed {
				c = r.unpack(c)
			}
			if whole == nil {
				whole = c.RowSlice(0, 0)
				whole.C = nil // a copy: the engine keeps its own chunks for resends
			}
			whole.Append(c)
		}
		h, span := r.h, r.f.Span
		if span <= 0 || span > h.Rows {
			span = max(h.Rows, 1)
		}
		return transport.SendStream(r.out, h.Seq, h.Rows, h.Cols, r.f.Chunks(h.Rows), func(i int) (any, error) {
			return whole.RowSlice(i*span, min(i*span+span, h.Rows)), nil
		})
	}
	return r.Conn.Send(v)
}

// unpack re-encrypts a packed matrix one value per ciphertext, from its exact
// lane integers.
func (r *Reframe) unpack(m *hetensor.Matrix) *hetensor.Matrix {
	if m.K == 1 {
		return m
	}
	var sk *paillier.PrivateKey
	for _, k := range r.keys {
		if k.N.Cmp(m.PK.N) == 0 {
			sk = k
		}
	}
	if sk == nil {
		panic("transporttest: no key to unpack a matrix with")
	}
	ints := hetensor.DecryptPackedInts(sk, m)
	out := hetensor.EncryptAs(m.PK, tensor.NewDense(0, m.Cols), m.Scale, hetensor.Layout{Block: m.Block})
	out.Rows, out.C = m.Rows, make([]*paillier.Ciphertext, len(ints.V))
	for i, v := range ints.V {
		c, err := paillier.EncryptPooled(m.PK, fixedpoint.ToRing(v, m.PK.N))
		if err != nil {
			panic(fmt.Sprintf("transporttest: %v", err))
		}
		out.C[i] = c
	}
	return out
}
