// Package hetensor vectorizes Paillier operations over matrices. It is the
// Go analogue of the paper's CryptoTensor abstraction (Sec. 7.1): encrypted
// matrices with dense and sparse plaintext·ciphertext matrix multiplication,
// encrypted embedding lookup and scatter-add, and fixed-point scale
// bookkeeping.
//
// One encrypted matrix type: a Matrix holds its values in the lanes of its
// ciphertexts, K lanes of W bits each, and the key offers three lane layouts
// (packed.go). An unpacked matrix is the one-lane layout whose lane is as
// wide as the plaintext, where packing and unpacking a value are exactly
// EncodeRing and DecodeRing. Every product is written once over the
// matrix's grid of ciphertexts (kernels.go), so the lane format changes the
// width of the grid and the lanes of the result, never the kernel. The
// names in compat.go forward to it.
//
// Scale discipline: an encrypted matrix carries the fixed-point scale of its
// plaintexts. Multiplying by a plaintext matrix (always encoded at scale 1)
// raises the scale by one; additions require equal scales. Values are
// decrypted back to float64 before any further non-linear processing, so the
// scale never exceeds 2.
//
// Matmul kernels resolve their Straus window tables through a process-wide,
// byte-budgeted LRU cache (tablecache.go) when SetTableCacheBudget enables
// it: tables are keyed by ciphertext-matrix identity (IDs minted at
// encryption and on receive; mutable accumulators and row-slice views are
// identity-less and bypass the cache), built at a wider window than a
// single call would justify, and reused across kernel invocations, batches
// and epochs. Invalidation is by construction: cells of an identified
// matrix are never replaced, and a refreshed weight copy is a new matrix
// with a new identity, so stale entries cannot be observed — they only age
// out LRU-first when the byte budget fills. Results are bit-identical with
// the cache on or off.
package hetensor

import (
	"fmt"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// Codec is the fixed-point codec shared by every encrypted tensor. 40
// fractional bits keeps the quantization error of a product below
// maskMag·2⁻⁴¹ even when weight shares have drifted to mask magnitude
// (~2²⁰), while a scale-2 value still needs only ~120 bits of a ≥512-bit
// Paillier plaintext.
var Codec = fixedpoint.Codec{F: 40}

// Matrix is a rows×cols matrix of fixed-point values packed K per
// ciphertext in lanes of W bits under PK. Columns are partitioned into
// blocks of Block columns; each block is packed independently into
// ⌈Block/K⌉ ciphertexts, so concatenations of equally-blocked rows
// (embedding lookups) keep their lane alignment. A one-lane matrix has
// Block = 1.
//
// The lane format travels with the data: the protocol layer moves, masks,
// decrypts and vets matrices, the source layers hold their encrypted weight
// pieces, and the kernels compute on them, none of them with a packed and an
// unpacked body — a matrix is packed because the party that encrypted it
// chose so, and every later holder takes it as it comes.
//
// id is the matrix's table-cache identity (tablecache.go): non-zero only for
// matrices whose cells are never replaced after construction — encryption
// results and received matrices. Accumulators and row-slice views stay 0 and
// bypass the cache. The field is unexported, so gob transfers drop it and
// the receiver mints its own.
type Matrix struct {
	Rows, Cols int
	Block      int
	Scale      uint
	W          uint // lane width in bits
	K          int  // lanes per ciphertext
	PK         *paillier.PublicKey
	C          []*paillier.Ciphertext

	id uint64
}

// Layout is an encryptor's choice of how a matrix's values lie in
// ciphertexts; the zero value is one value per ciphertext. The matrix carries
// it from then on: every product, mask and decryption follows the operand.
type Layout struct {
	Packed bool // K values per ciphertext; else one whole-width lane
	Block  int  // columns per independently packed block; ≤ 0 is the whole row (one lane: always 1)
	Wide   bool // double-width lanes: for a factor of products that outgrow PackHeadroom (widePackingFor)
}

// EncryptAs encrypts d in the given layout: the one place a caller's packing
// choice becomes a lane format.
func EncryptAs(pk *paillier.PublicKey, d *tensor.Dense, scale uint, l Layout) *Matrix {
	lc := wholeFor(pk)
	if l.Packed && l.Wide {
		lc = widePackingFor(pk)
	} else if l.Packed {
		lc = packingFor(pk)
	}
	return encryptInto(newMatrix(pk, lc, d.Rows, d.Cols, l.Block, scale), d)
}

// Encrypt encrypts a dense matrix one value per ciphertext at the given
// scale. When a paillier blinding pool is registered for pk, encryption takes
// the precomputed-randomness fast path.
func Encrypt(pk *paillier.PublicKey, d *tensor.Dense, scale uint) *Matrix {
	return EncryptAs(pk, d, scale, Layout{})
}

// EncryptRows encrypts the given rows of a plaintext matrix one value per
// ciphertext (row i of the result is row rows[i] of d).
func EncryptRows(pk *paillier.PublicKey, d *tensor.Dense, rows []int, scale uint) *Matrix {
	return Encrypt(pk, d.GatherRows(rows), scale)
}

// PackEncrypt encrypts a dense matrix with the key's default K values per
// ciphertext (Block = Cols).
func PackEncrypt(pk *paillier.PublicKey, d *tensor.Dense, scale uint) *Matrix {
	return EncryptAs(pk, d, scale, Layout{Packed: true})
}

// encryptInto fills out, an accumulator of d's shape, with fresh encryptions
// of d in out's lanes.
func encryptInto(out *Matrix, d *tensor.Dense) *Matrix {
	lc := out.codec()
	gpr := out.GroupsPerRow()
	parallel.For(len(out.C), func(t int) {
		i, g := t/gpr, t%gpr
		col := out.groupCol(g)
		c, err := paillier.EncryptPooled(out.PK, lc.PackRing(d.Row(i)[col:col+out.laneCount(g)], out.Scale, out.PK.N))
		if err != nil {
			panic(fmt.Sprintf("hetensor: encrypt: %v", err))
		}
		out.C[t] = c
	})
	out.MintID()
	return out
}

// Decrypt decrypts a matrix back to float64 at its scale.
func Decrypt(sk *paillier.PrivateKey, m *Matrix) *tensor.Dense {
	out := tensor.NewDense(m.Rows, m.Cols)
	lc := m.codec()
	gpr := m.GroupsPerRow()
	parallel.For(len(m.C), func(t int) {
		i, g := t/gpr, t%gpr
		col, lanes := m.groupCol(g), m.laneCount(g)
		copy(out.Row(i)[col:col+lanes], lc.UnpackRing(sk.Decrypt(m.C[t]), lanes, m.Scale, sk.N))
	})
	return out
}

// Decrypt is Decrypt(sk, m).
func (m *Matrix) Decrypt(sk *paillier.PrivateKey) *tensor.Dense { return Decrypt(sk, m) }

// AddPlain returns ⟦m + d⟧ with d packed at m's scale in m's lanes, without
// fresh randomness: the receive half of SS2HE.
func (m *Matrix) AddPlain(d *tensor.Dense) *Matrix {
	if m.Rows != d.Rows || m.Cols != d.Cols {
		panic("hetensor: AddPlain shape mismatch")
	}
	out := m.Anonymous()
	out.C = make([]*paillier.Ciphertext, len(m.C))
	lc := m.codec()
	gpr := m.GroupsPerRow()
	parallel.For(len(m.C), func(t int) {
		i, g := t/gpr, t%gpr
		col := m.groupCol(g)
		out.C[t] = m.PK.AddPlain(m.C[t], lc.PackRing(d.Row(i)[col:col+m.laneCount(g)], m.Scale, m.PK.N))
	})
	return out
}

// SubPlainFresh returns ⟦m − d⟧ through fresh encryptions of −d in m's
// lanes, which re-randomizes every ciphertext: the send half of HE2SS. A
// packed matrix pays 1/K of the unpacked blinding exponentiations.
func (m *Matrix) SubPlainFresh(d *tensor.Dense) *Matrix {
	if m.Rows != d.Rows || m.Cols != d.Cols {
		panic("hetensor: SubPlainFresh shape mismatch")
	}
	neg := tensor.NewDense(d.Rows, d.Cols)
	for i, v := range d.Data {
		neg.Data[i] = -v
	}
	return Add(m, encryptInto(m.like(m.Rows, m.Cols, 0, m.Scale), neg))
}
