package hetensor

import (
	"fmt"
	"math"
	"math/big"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
)

// spotSlackBits is the integer headroom a legitimate plaintext may occupy
// beyond its F·scale fractional bits: masks (≤ 2^20), dot-product
// accumulation and batch sums. Far below the ~keybits a corrupted ciphertext
// decrypts to.
const spotSlackBits = 64

// NewPackedMatrix allocates a packed matrix of unrandomized encryptions of
// zero, the accumulator identity, with the key's default lane layout.
func NewPackedMatrix(pk *paillier.PublicKey, rows, cols, block int, scale uint) *Matrix {
	return newMatrix(pk, packingFor(pk), rows, cols, block, scale)
}

// newMatrix allocates rows×cols of zero encryptions (the multiplicative
// identity of the ciphertext group) in lc's lanes, in blocks of block
// columns: ≤ 0 is the whole row, and a one-lane matrix always has Block = 1,
// so that layouts compare equal whatever block a caller asked for.
func newMatrix(pk *paillier.PublicKey, lc fixedpoint.LaneCodec, rows, cols, block int, scale uint) *Matrix {
	if block <= 0 {
		block = cols
	}
	if lc.K == 1 {
		block = 1
	}
	if cols%block != 0 {
		panic(fmt.Sprintf("hetensor: packed block %d does not divide cols %d", block, cols))
	}
	m := &Matrix{Rows: rows, Cols: cols, Block: block, Scale: scale, W: lc.W, K: lc.K, PK: pk}
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
func (m *Matrix) like(rows, cols, block int, scale uint) *Matrix {
	if block <= 0 {
		block = m.Block
	}
	return newMatrix(m.PK, m.codec(), rows, cols, block, scale)
}

// NewAcc returns the rows-tall accumulator for products with m: zero
// encryptions in m's layout at one scale up.
func (m *Matrix) NewAcc(rows int) *Matrix { return m.like(rows, m.Cols, 0, m.Scale+1) }

func (m *Matrix) codec() fixedpoint.LaneCodec {
	return fixedpoint.LaneCodec{Codec: Codec, W: m.W, K: m.K}
}

// GroupsPerBlock returns the ciphertexts spanning one block.
func (m *Matrix) GroupsPerBlock() int { return (m.Block + m.K - 1) / m.K }

// GroupsPerRow returns the ciphertexts spanning one row: Cols exactly when
// every ciphertext holds one value.
func (m *Matrix) GroupsPerRow() int { return (m.Cols / m.Block) * m.GroupsPerBlock() }

// Row returns the ciphertexts of row i.
func (m *Matrix) Row(i int) []*paillier.Ciphertext {
	g := m.GroupsPerRow()
	return m.C[i*g : (i+1)*g]
}

func (m *Matrix) at(i, j int) *paillier.Ciphertext     { return m.Row(i)[j] }
func (m *Matrix) set(i, j int, c *paillier.Ciphertext) { m.Row(i)[j] = c }

// laneCount returns how many lanes group g (indexed within a row) holds.
func (m *Matrix) laneCount(g int) int {
	return min(m.K, m.Block-(g%m.GroupsPerBlock())*m.K)
}

// groupCol returns the first logical column covered by group g of a row.
func (m *Matrix) groupCol(g int) int {
	gpb := m.GroupsPerBlock()
	return (g/gpb)*m.Block + (g%gpb)*m.K
}

// RowSlice returns an identity-less view of rows [lo, hi) sharing m's
// ciphertexts and lane layout — the chunk unit of a transfer — its capacity
// clipped so that appending to the view never writes into m.
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("hetensor: RowSlice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	g := m.GroupsPerRow()
	out := m.Anonymous()
	out.Rows, out.C = hi-lo, m.C[lo*g:hi*g:hi*g]
	return out
}

// Anonymous returns a shallow copy without a table-cache identity: what a
// receiver works on, so that a chunk delivered by pointer (in-process
// transports) looks like one that went through gob, and attaching the
// trusted key does not write to the sender's object.
func (m *Matrix) Anonymous() *Matrix {
	cp := *m
	cp.id = 0
	return &cp
}

// SameLayout reports whether o has m's width, blocks, lanes and scale, so
// that rows of one can follow rows of the other.
func (m *Matrix) SameLayout(o *Matrix) bool {
	return o.Cols == m.Cols && o.Block == m.Block && o.W == m.W && o.K == m.K && o.Scale == m.Scale
}

// Append grows m by o's rows. o must be SameLayout.
func (m *Matrix) Append(o *Matrix) {
	m.C = append(m.C, o.C...)
	m.Rows += o.Rows
}

// VerifyRow re-decrypts row i through the exact-integer path and reports
// whether each ciphertext is in range and its lanes decode to exactly want.
// In range: a packed value is a lane polynomial of lanes·W bits, a corrupted
// one ring-wide; a whole-width lane holds one value, which must fit its
// F·scale fractional bits — lanes·W would be the whole ring and check
// nothing. Both with spotSlackBits of integer headroom. Unlike Decrypt it
// decrypts both CRT halves: a corruption that leaves the residue mod p in
// range is still ring-wide mod N, and only the full plaintext shows it.
func (m *Matrix) VerifyRow(sk *paillier.PrivateKey, i int, want []float64) bool {
	lc := m.codec()
	for g, c := range m.Row(i) {
		col, lanes := m.groupCol(g), m.laneCount(g)
		limit := lanes*int(m.W) + 1
		if int(m.W) >= sk.N.BitLen() {
			limit = int(Codec.F * m.Scale)
		}
		v := sk.Decrypt(c)
		if fixedpoint.FromRing(v, sk.N).BitLen() > limit+spotSlackBits {
			return false
		}
		for l, val := range lc.UnpackRing(v, lanes, m.Scale, sk.N) {
			if val != want[col+l] {
				return false
			}
		}
	}
	return true
}

// Trust attaches the locally trusted key and vets what a peer sent against
// it: a consistent shape, one of the key's own three lane layouts (every
// honest encryptor derives it from the modulus size, and a decryption
// allocates by it) with Block = 1 for one lane, and every ciphertext
// present, in Z_N² and invertible. Nothing else about a received matrix may
// be relied on before it returns nil.
func (m *Matrix) Trust(pk *paillier.PublicKey) error {
	m.PK = pk
	known := false
	for _, lc := range []fixedpoint.LaneCodec{packingFor(pk), widePackingFor(pk), wholeFor(pk)} {
		known = known || m.W == lc.W && m.K == lc.K
	}
	if !known || m.Block <= 0 || m.Cols < 0 || m.Cols%m.Block != 0 || m.K == 1 && m.Block != 1 {
		return fmt.Errorf("layout %d cols / block %d, lanes %d×%d is not the key's", m.Cols, m.Block, m.K, m.W)
	}
	return vetCells(m.C, cellCount(m.Rows, m.GroupsPerRow()), pk)
}

// vetCells checks that a received matrix has the want ciphertexts its shape
// needs (negative when the shape itself is inconsistent) and that each is
// present, 0 < C < N², and invertible mod N² — gcd(C, N) = 1; a
// non-invertible C would reveal a factor of N and cannot come from an honest
// encryptor. Invertibility is one GCD for the whole matrix (AllUnits); only a
// failure is traced cell by cell, to name the one at fault.
func vetCells(cells []*paillier.Ciphertext, want int, pk *paillier.PublicKey) error {
	if want < 0 || len(cells) != want {
		return fmt.Errorf("%d ciphertexts do not fit the announced shape", len(cells))
	}
	for i, c := range cells {
		switch {
		case c == nil || c.C == nil:
			return fmt.Errorf("ciphertext %d missing", i)
		case c.C.Sign() <= 0 || c.C.Cmp(pk.N2) >= 0:
			return fmt.Errorf("ciphertext %d outside Z_N²", i)
		}
	}
	if pk.AllUnits(cells) {
		return nil
	}
	one := big.NewInt(1)
	gcd := new(big.Int)
	for i, c := range cells {
		if gcd.GCD(nil, nil, c.C, pk.N).Cmp(one) != 0 {
			return fmt.Errorf("ciphertext %d not invertible", i)
		}
	}
	return nil
}

// cellCount returns rows·per, or −1 for a negative or overflowing shape.
func cellCount(rows, per int) int {
	if rows < 0 || per < 0 || (per > 0 && rows > math.MaxInt/per) {
		return -1
	}
	return rows * per
}
