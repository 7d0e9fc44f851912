package hetensor

import (
	"fmt"
	"math/big"

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

// PackedMatrix is a rows×cols matrix of fixed-point values packed K-per-
// ciphertext under PK. Columns are partitioned into blocks of Block columns;
// each block is packed independently into ⌈Block/K⌉ ciphertexts, so
// concatenations of equally-blocked rows (embedding lookups) keep their lane
// alignment. A plain matrix uses Block == Cols.
type PackedMatrix struct {
	Rows, Cols int
	Block      int
	Scale      uint
	W          uint // lane width in bits
	K          int  // lanes per ciphertext
	PK         *paillier.PublicKey
	C          []*paillier.Ciphertext

	// id is the table-cache identity; see CipherMatrix. Unexported: gob
	// drops it and the receiver mints its own.
	id uint64
}

func (m *PackedMatrix) codec() fixedpoint.LaneCodec {
	return fixedpoint.LaneCodec{Codec: Codec, W: m.W, K: m.K}
}

// GroupsPerBlock returns the ciphertexts spanning one block.
func (m *PackedMatrix) GroupsPerBlock() int { return (m.Block + m.K - 1) / m.K }

// GroupsPerRow returns the ciphertexts spanning one row.
func (m *PackedMatrix) GroupsPerRow() int { return (m.Cols / m.Block) * m.GroupsPerBlock() }

// Row returns the ciphertext groups of row i.
func (m *PackedMatrix) Row(i int) []*paillier.Ciphertext {
	g := m.GroupsPerRow()
	return m.C[i*g : (i+1)*g]
}

// RowSlice returns a view of rows [lo, hi) sharing m's ciphertexts and lane
// layout, capacity clipped like CipherMatrix.RowSlice.
func (m *PackedMatrix) RowSlice(lo, hi int) Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("hetensor: packed RowSlice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	g := m.GroupsPerRow()
	return &PackedMatrix{Rows: hi - lo, Cols: m.Cols, Block: m.Block, Scale: m.Scale, W: m.W, K: m.K,
		PK: m.PK, C: m.C[lo*g : hi*g : hi*g]}
}

func (m *PackedMatrix) Anonymous() Matrix {
	cp := *m
	cp.id = 0
	return &cp
}

// laneCount returns how many lanes group g (indexed within a row) holds.
func (m *PackedMatrix) laneCount(g int) int {
	gInBlock := g % m.GroupsPerBlock()
	lanes := m.Block - gInBlock*m.K
	if lanes > m.K {
		lanes = m.K
	}
	return lanes
}

// groupCol returns the first logical column covered by group g of a row.
func (m *PackedMatrix) groupCol(g int) int {
	gpb := m.GroupsPerBlock()
	return (g/gpb)*m.Block + (g%gpb)*m.K
}

// NewPackedMatrix allocates a packed matrix of unrandomized encryptions of
// zero, the accumulator identity, with the key's default lane layout.
func NewPackedMatrix(pk *paillier.PublicKey, rows, cols, block int, scale uint) *PackedMatrix {
	return newPacked(pk, packingFor(pk), rows, cols, block, scale)
}

func newPacked(pk *paillier.PublicKey, lc fixedpoint.LaneCodec, rows, cols, block int, scale uint) *PackedMatrix {
	if block <= 0 {
		block = cols
	}
	if cols%block != 0 {
		panic(fmt.Sprintf("hetensor: packed block %d does not divide cols %d", block, cols))
	}
	m := &PackedMatrix{Rows: rows, Cols: cols, Block: block, Scale: scale, W: lc.W, K: lc.K, PK: pk}
	m.C = make([]*paillier.Ciphertext, rows*m.GroupsPerRow())
	for i := range m.C {
		m.C[i] = &paillier.Ciphertext{C: big.NewInt(1)}
	}
	return m
}

// like allocates the accumulator identity in m's lanes under m's key,
// rows×cols in blocks of block columns (≤ 0: m's own block): what a kernel's
// result over m is built in, so a layout chosen at encryption carries through
// every product.
func (m *PackedMatrix) like(rows, cols, block int, scale uint) Matrix {
	if block <= 0 {
		block = m.Block
	}
	return newPacked(m.PK, m.codec(), rows, cols, block, scale)
}

// PackEncrypt encrypts a dense matrix with K values per ciphertext
// (Block = Cols). Uses the registered blinding pool for pk when present.
func PackEncrypt(pk *paillier.PublicKey, d *tensor.Dense, scale uint) *PackedMatrix {
	return PackEncryptBlocks(pk, d, scale, d.Cols)
}

// PackEncryptBlocks is PackEncrypt with an explicit block width (columns are
// packed per block so the layout matches block-structured matrices such as
// per-field embedding lookups).
func PackEncryptBlocks(pk *paillier.PublicKey, d *tensor.Dense, scale uint, block int) *PackedMatrix {
	return packEncryptInto(NewPackedMatrix(pk, d.Rows, d.Cols, block, scale), d)
}

// packEncryptInto fills out, an accumulator of d's shape, with fresh
// encryptions of d in out's lanes.
func packEncryptInto(out *PackedMatrix, d *tensor.Dense) *PackedMatrix {
	lc := out.codec()
	gpr := out.GroupsPerRow()
	parallel.For(d.Rows*gpr, func(t int) {
		i, g := t/gpr, t%gpr
		col := out.groupCol(g)
		lanes := out.laneCount(g)
		m := lc.PackRing(d.Row(i)[col:col+lanes], out.Scale, out.PK.N)
		c, err := paillier.EncryptPooled(out.PK, m)
		if err != nil {
			panic(fmt.Sprintf("hetensor: pack encrypt: %v", err))
		}
		out.C[t] = c
	})
	out.MintID()
	return out
}

// DecryptPacked decrypts a packed matrix back to float64 at its scale.
func DecryptPacked(sk *paillier.PrivateKey, m *PackedMatrix) *tensor.Dense {
	out := tensor.NewDense(m.Rows, m.Cols)
	lc := m.codec()
	gpr := m.GroupsPerRow()
	parallel.For(len(m.C), func(t int) {
		i, g := t/gpr, t%gpr
		col := m.groupCol(g)
		lanes := m.laneCount(g)
		vals := lc.UnpackRing(sk.Decrypt(m.C[t]), lanes, m.Scale, sk.N)
		copy(out.Row(i)[col:col+lanes], vals)
	})
	return out
}

// AddPlain returns ⟦m + d⟧ with d packed at m's scale in m's lanes (no fresh
// randomness).
func (m *PackedMatrix) AddPlain(d *tensor.Dense) Matrix {
	if m.Rows != d.Rows || m.Cols != d.Cols {
		panic("hetensor: packed AddPlain shape mismatch")
	}
	out := &PackedMatrix{Rows: m.Rows, Cols: m.Cols, Block: m.Block, Scale: m.Scale, W: m.W, K: m.K, PK: m.PK,
		C: make([]*paillier.Ciphertext, len(m.C))}
	lc := m.codec()
	gpr := m.GroupsPerRow()
	parallel.For(len(m.C), func(t int) {
		i, g := t/gpr, t%gpr
		col := m.groupCol(g)
		out.C[t] = m.PK.AddPlain(m.C[t], lc.PackRing(d.Row(i)[col:col+m.laneCount(g)], m.Scale, m.PK.N))
	})
	return out
}

// SubPlainFresh packs the fresh encryptions of −d too, so the conversion
// costs 1/K of the unpacked blinding exponentiations.
func (m *PackedMatrix) SubPlainFresh(d *tensor.Dense) Matrix {
	if m.Rows != d.Rows || m.Cols != d.Cols {
		panic("hetensor: packed SubPlainFresh shape mismatch")
	}
	neg := tensor.NewDense(d.Rows, d.Cols)
	for i, v := range d.Data {
		neg.Data[i] = -v
	}
	return Add(m, packEncryptInto(m.like(m.Rows, m.Cols, 0, m.Scale).(*PackedMatrix), neg))
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
func PackCellsLike(cells *CipherMatrix, like *PackedMatrix) *PackedMatrix {
	if cells.Cols != like.Cols {
		panic(fmt.Sprintf("hetensor: PackCellsLike of %d columns into %d", cells.Cols, like.Cols))
	}
	out := like.like(cells.Rows, cells.Cols, 0, cells.Scale).(*PackedMatrix)
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
func PackFlat(cells *CipherMatrix) Matrix {
	n := len(cells.C)
	flat := &CipherMatrix{Rows: 1, Cols: n, Scale: cells.Scale, PK: cells.PK, C: cells.C}
	if n == 0 {
		return flat
	}
	return PackCellsLike(flat, NewPackedMatrix(cells.PK, 0, n, n, cells.Scale))
}
