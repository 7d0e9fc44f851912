package hetensor

import (
	"fmt"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// Ciphertext packing: one Paillier plaintext is ~512–2048 bits wide while a
// scale-2 fixed-point value uses only ~120, so K consecutive matrix entries
// are packed into the lanes of a single ciphertext (fixedpoint.LaneCodec).
// Every homomorphic operation then touches ~K× fewer ciphertexts: K× fewer
// blinding exponentiations on the encryption paths and K× fewer ciphertext
// multiplications in the plaintext·ciphertext matmuls — the throughput lever
// behind the packed federated source layers.
//
// A key offers three lane layouts: its default lanes (packingFor), its wide
// lanes (widePackingFor), and one whole lane (wholeFor), the unpacked
// layout. Trust accepts no other.

// PackHeadroom is the integer growth allowance per lane in bits, covering
// HE2SS masks (2^20) and matmul accumulation on top of a scale-2 value.
const PackHeadroom = 43

// packingFor sizes the lane layout for a public key. Keys accepted by
// paillier.GenerateKey (≥128 bits… in practice ≥512 here) always fit at
// least one lane at the default codec, so sizing cannot fail for usable keys.
func packingFor(pk *paillier.PublicKey) fixedpoint.LaneCodec {
	lc, err := fixedpoint.NewLaneCodec(Codec, pk.N.BitLen(), 2, PackHeadroom)
	if err != nil {
		panic(fmt.Sprintf("hetensor: %v", err))
	}
	return lc
}

// widePackingFor is the key's layout with every other lane left empty: half
// the lanes at twice the width. PackHeadroom covers a product of a mask-sized
// factor with a unit-sized one; where both factors are mask-sized — the
// Embed-MatMul forward multiplies a share ψ = ε + … by a weight piece that
// has itself drifted by the masks folded into every update — a scale-2 sum
// passes 2^43 within tens of steps, and a lane that overflows corrupts its
// neighbour silently. A matrix encrypted wide hands its lanes to everything
// computed from it. Keys too small for two such lanes keep one.
func widePackingFor(pk *paillier.PublicKey) fixedpoint.LaneCodec {
	lc := packingFor(pk)
	lc.W *= 2
	lc.K = max(1, (pk.N.BitLen()-1)/int(lc.W))
	return lc
}

// wholeFor is the unpacked layout: one lane as wide as the modulus. It
// cannot wrap — a signed plaintext lifted from Z_N has |x| ≤ (N−1)/2 <
// 2^(W−1) — so packing one value is exactly Codec.EncodeRing and unpacking
// it Codec.DecodeRing, and a product of any scale decodes as it would
// unpacked.
func wholeFor(pk *paillier.PublicKey) fixedpoint.LaneCodec {
	return fixedpoint.LaneCodec{Codec: Codec, W: uint(pk.N.BitLen()), K: 1}
}

// PackCellsLike packs an encrypted matrix with one value per ciphertext into
// like's lanes and blocks, homomorphically: lane l of a group is its cell
// raised to 2^(l·W), accumulated by Horner's rule from the top lane down, so
// a group of L cells costs (L−1)·W squarings. It is how a product gets packed
// when its lanes cannot come from an operand: where the ciphertext is the left
// factor (MulRightTransposeAdd) every base holds one value, and the products
// are computed per cell first. Slower than leaving them unpacked, and K× fewer
// ciphertexts to add, scatter, blind and decrypt downstream. Measured against
// packing the plaintext factor into K·W-bit exponents instead (ServeProducts'
// mechanism): 89 ms against 100 ms at the embed_cat shape (docs/PERF.md).
func PackCellsLike(cells, like *Matrix) *Matrix {
	if cells.Cols != like.Cols || cells.GroupsPerRow() != cells.Cols {
		panic(fmt.Sprintf("hetensor: PackCellsLike of %d columns in %d ciphertexts into %d", cells.Cols, cells.GroupsPerRow(), like.Cols))
	}
	out := like.like(cells.Rows, cells.Cols, 0, cells.Scale)
	gpr := out.GroupsPerRow()
	parallel.For(len(out.C), func(t int) {
		i, g := t/gpr, t%gpr
		col := out.groupCol(g)
		out.C[t] = cells.PK.PackLanes(cells.Row(i)[col:col+out.laneCount(g)], out.W)
	})
	return out
}

// PackFlat packs every cell of an encrypted matrix with one value per
// ciphertext, row-major, into one 1×(Rows·Cols) row in the key's default
// lanes: how a conversion whose rows are narrower than a ciphertext (the
// sparse layer's, Out values a row) still ships and decrypts K values at a
// time. The receiver reshapes the decrypted row. A matrix without cells has
// no lanes to fill and comes back as the empty row it is.
func PackFlat(cells *Matrix) *Matrix {
	if cells.GroupsPerRow() != cells.Cols {
		panic(fmt.Sprintf("hetensor: PackFlat of %d columns in %d ciphertexts", cells.Cols, cells.GroupsPerRow()))
	}
	flat := cells.Anonymous()
	flat.Rows, flat.Cols, flat.Block = 1, len(cells.C), 1
	if flat.Cols == 0 {
		return flat
	}
	return PackCellsLike(flat, NewPackedMatrix(cells.PK, 0, flat.Cols, flat.Cols, cells.Scale))
}

// MulRightTransposeAdd returns sum + ⟦G·Wᵀ⟧ for plaintext W in sum's lane
// format. The ciphertext is the left factor, so G must hold one value per
// ciphertext, and the products, computed per cell, are packed into sum's
// lanes (PackCellsLike) — for a one-lane sum, to the same residues.
func MulRightTransposeAdd(sum, g *Matrix, w *tensor.Dense) *Matrix {
	return Add(sum, PackCellsLike(MulPlainRightTranspose(g, w), sum))
}
