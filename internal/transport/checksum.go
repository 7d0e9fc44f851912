// Checksums for stream envelopes: a structural FNV-1a over the payload,
// mirroring the type switch of WireSize. Hashing the structural bytes
// directly (float bits, big.Int limbs, index slices) keeps the in-process
// transports zero-copy — running a real encoder per chunk would cost more
// than the chunk's homomorphic work it is guarding.
package transport

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// Checksum returns the FNV-1a digest of v's structural payload: every byte a
// bit-flip could corrupt contributes, with lengths and nil markers folded in
// so distinct shapes can never collide by concatenation. Unknown payload
// types contribute their type tag only (they carry no matrix data worth
// guarding); the stream layer only ships the structural types below.
func Checksum(v any) uint64 {
	f := newFNV()
	f.writeValue(v)
	return f.sum()
}

// fnvWriter wraps hash/fnv with the fixed-width field helpers the structural
// hash needs.
type fnvWriter struct {
	h   interface{ Sum64() uint64 }
	w   interface{ Write([]byte) (int, error) }
	buf [8]byte
}

func newFNV() *fnvWriter {
	h := fnv.New64a()
	return &fnvWriter{h: h, w: h}
}

func (f *fnvWriter) sum() uint64 { return f.h.Sum64() }

func (f *fnvWriter) writeUint64(x uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], x)
	f.w.Write(f.buf[:])
}

func (f *fnvWriter) writeFloats(xs []float64) {
	f.writeUint64(uint64(len(xs)))
	for _, x := range xs {
		f.writeUint64(math.Float64bits(x))
	}
}

func (f *fnvWriter) writeInts(xs []int) {
	f.writeUint64(uint64(len(xs)))
	for _, x := range xs {
		f.writeUint64(uint64(int64(x)))
	}
}

func (f *fnvWriter) writeBig(x *big.Int) {
	if x == nil {
		f.writeUint64(^uint64(0))
		return
	}
	b := x.Bytes()
	neg := uint64(0)
	if x.Sign() < 0 {
		neg = 1
	}
	f.writeUint64(uint64(len(b))<<1 | neg)
	f.w.Write(b)
}

func (f *fnvWriter) writeCipher(c *paillier.Ciphertext) {
	if c == nil {
		f.writeUint64(^uint64(0) - 1)
		return
	}
	f.writeBig(c.C)
}

func (f *fnvWriter) writeValue(v any) {
	switch m := v.(type) {
	case nil:
		f.writeUint64(0)
	case *tensor.Dense:
		f.writeUint64(1)
		f.writeUint64(uint64(int64(m.Rows)))
		f.writeUint64(uint64(int64(m.Cols)))
		f.writeFloats(m.Data)
	case *tensor.CSR:
		f.writeUint64(2)
		f.writeInts(m.RowPtr)
		f.writeInts(m.ColIdx)
		f.writeFloats(m.Val)
	case *tensor.IntMatrix:
		f.writeUint64(3)
		f.writeUint64(uint64(int64(m.Rows)))
		f.writeUint64(uint64(int64(m.Cols)))
		f.writeInts(m.Data)
	case []int:
		f.writeUint64(4)
		f.writeInts(m)
	case []uint64:
		f.writeUint64(5)
		f.writeUint64(uint64(len(m)))
		for _, x := range m {
			f.writeUint64(x)
		}
	case *paillier.PublicKey:
		f.writeUint64(6)
		f.writeBig(m.N)
	case *paillier.Ciphertext:
		f.writeUint64(7)
		f.writeCipher(m)
	case *hetensor.BigMatrix:
		f.writeUint64(11)
		f.writeUint64(uint64(int64(m.Rows)))
		f.writeUint64(uint64(int64(m.Cols)))
		f.writeUint64(uint64(m.Scale))
		f.writeUint64(uint64(len(m.V)))
		for _, x := range m.V {
			f.writeBig(x)
		}
	case *hetensor.Matrix:
		f.writeUint64(9)
		f.writeUint64(uint64(int64(m.Rows)))
		f.writeUint64(uint64(int64(m.Cols)))
		f.writeUint64(uint64(int64(m.Block)))
		f.writeUint64(uint64(m.Scale))
		f.writeUint64(uint64(m.W))
		f.writeUint64(uint64(int64(m.K)))
		for _, c := range m.C {
			f.writeCipher(c)
		}
	case *ShardHello:
		f.writeUint64(12)
		f.writeUint64(uint64(int64(m.Shard)))
		f.writeUint64(uint64(int64(m.Shards)))
		f.writeUint64(uint64(int64(m.Sessions)))
		f.writeUint64(m.Fingerprint)
	case *ShardAck:
		f.writeUint64(13)
		f.writeUint64(uint64(int64(m.Shard)))
		f.writeUint64(m.Fingerprint)
	case *SessionHello:
		f.writeUint64(14)
		f.writeUint64(uint64(int64(m.Session)))
		f.writeUint64(m.Fingerprint)
	case *ShardParts:
		f.writeUint64(15)
		f.writeUint64(m.Seq)
		f.writeUint64(uint64(len(m.Zs)))
		for _, z := range m.Zs {
			if z == nil {
				f.writeUint64(0)
				continue
			}
			f.writeValue(z)
		}
	case *ShardGrad:
		f.writeUint64(16)
		f.writeUint64(m.Seq)
		if m.G != nil {
			f.writeValue(m.G)
		}
	case *ShardShare:
		f.writeUint64(17)
		f.writeUint64(m.Seq)
		if m.S != nil {
			f.writeValue(m.S)
		}
	case *ShardLayers:
		f.writeUint64(18)
		f.writeUint64(uint64(int64(m.Epoch)))
		f.writeUint64(uint64(len(m.Blobs)))
		for _, b := range m.Blobs {
			f.writeUint64(uint64(len(b)))
			f.w.Write(b)
		}
	case *ShardBlob:
		f.writeUint64(19)
		f.writeUint64(uint64(len(m.Kind)))
		f.w.Write([]byte(m.Kind))
		f.writeUint64(uint64(len(m.Data)))
		f.w.Write(m.Data)
	default:
		// Non-structural payloads: a stable type tag. The stream layer only
		// ships the matrix types above; anything else is control traffic.
		f.writeUint64(10)
		f.w.Write([]byte(fmt.Sprintf("%T", v)))
	}
}
