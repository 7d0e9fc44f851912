package hetensor

import (
	"fmt"
	"math"
	"math/big"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// Matrix is an encrypted matrix whose lane format — one value per ciphertext
// (*CipherMatrix) or K per ciphertext (*PackedMatrix) — travels with the
// data. The protocol layer moves, masks, decrypts and vets matrices through
// it and the source layers hold their encrypted weight pieces as it, so
// neither has a packed and an unpacked body: a matrix is packed because the
// party that encrypted it chose so, and every later holder takes it as it
// comes. The two kernel families stay concrete (lane arithmetic differs);
// the dispatchers below pick between them. Sealed: exactly the two
// implementations in this package.
type Matrix interface {
	// Dims returns the logical shape in values, not ciphertexts.
	Dims() (rows, cols int)
	// AtScale returns the fixed-point scale of the plaintexts.
	AtScale() uint
	// Key returns the public key the matrix claims to be under.
	Key() *paillier.PublicKey
	// RowSlice returns an identity-less view of rows [lo, hi): the chunk
	// unit of a transfer.
	RowSlice(lo, hi int) Matrix
	// Anonymous returns a shallow copy without a table-cache identity: what
	// a receiver works on, so that a chunk delivered by pointer (in-process
	// transports) looks like one that went through gob, and attaching the
	// trusted key does not write to the sender's object.
	Anonymous() Matrix
	// MintID gives a matrix whose cells will not change a fresh table-cache
	// identity.
	MintID()
	// SubPlainFresh returns ⟦m − d⟧ through fresh encryptions of −d, which
	// re-randomizes every ciphertext: the send half of HE2SS.
	SubPlainFresh(d *tensor.Dense) Matrix
	// AddPlain returns ⟦m + d⟧ with d encoded at m's scale, without fresh
	// randomness: the receive half of SS2HE.
	AddPlain(d *tensor.Dense) Matrix
	// Decrypt returns the plaintext at the matrix's scale.
	Decrypt(sk *paillier.PrivateKey) *tensor.Dense
	// VerifyRow re-decrypts row i through the exact-integer path and reports
	// whether it is in fixed-point range and decodes to exactly want.
	VerifyRow(sk *paillier.PrivateKey, i int, want []float64) bool
	// Trust attaches the locally trusted key and vets what a peer sent
	// against it: a consistent shape, the key's own lane layout, and every
	// ciphertext present, in Z_N² and invertible. Nothing else about a
	// received matrix may be relied on before it returns nil.
	Trust(pk *paillier.PublicKey) error
	// SameLayout reports whether o has m's kind, width, scale and lanes, so
	// that rows of one can follow rows of the other.
	SameLayout(o Matrix) bool
	// Append grows m by o's rows. o must be SameLayout.
	Append(o Matrix)
	// NewAcc returns the rows-tall accumulator for products with m: zero
	// encryptions in m's layout at one scale up.
	NewAcc(rows int) Matrix
}

// spotSlackBits is the integer headroom a legitimate plaintext may occupy
// beyond its F·scale fractional bits: masks (≤ 2^20), dot-product
// accumulation and batch sums. Far below the ~keybits a corrupted ciphertext
// decrypts to.
const spotSlackBits = 64

// Layout is an encryptor's choice of how a matrix's values lie in
// ciphertexts; the zero value is one value per ciphertext. The matrix carries
// it from then on: every product, mask and decryption follows the operand.
type Layout struct {
	Packed bool // K values per ciphertext
	Block  int  // columns per independently packed block; ≤ 0 is the whole row, 1 one value per ciphertext
	Wide   bool // double-width lanes: for a factor of products that outgrow PackHeadroom (widePackingFor)
}

// EncryptAs encrypts d in the given layout: the one place a caller's packing
// choice becomes a matrix kind.
func EncryptAs(pk *paillier.PublicKey, d *tensor.Dense, scale uint, l Layout) Matrix {
	if !l.Packed {
		return Encrypt(pk, d, scale)
	}
	lc := packingFor(pk)
	if l.Wide {
		lc = widePackingFor(pk)
	}
	return packEncryptInto(newPacked(pk, lc, d.Rows, d.Cols, l.Block, scale), d)
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

func (m *CipherMatrix) Dims() (int, int)         { return m.Rows, m.Cols }
func (m *CipherMatrix) AtScale() uint            { return m.Scale }
func (m *CipherMatrix) Key() *paillier.PublicKey { return m.PK }

func (m *CipherMatrix) Decrypt(sk *paillier.PrivateKey) *tensor.Dense { return Decrypt(sk, m) }

func (m *CipherMatrix) VerifyRow(sk *paillier.PrivateKey, i int, want []float64) bool {
	limit := int(Codec.F)*int(m.Scale) + spotSlackBits
	for j, c := range m.Row(i) {
		v := sk.Decrypt(c)
		if fixedpoint.FromRing(v, sk.N).BitLen() > limit || Codec.DecodeRing(v, m.Scale, sk.N) != want[j] {
			return false
		}
	}
	return true
}

func (m *CipherMatrix) Trust(pk *paillier.PublicKey) error {
	m.PK = pk
	return vetCells(m.C, cellCount(m.Rows, m.Cols), pk)
}

func (m *CipherMatrix) SameLayout(o Matrix) bool {
	c, ok := o.(*CipherMatrix)
	return ok && c.Cols == m.Cols && c.Scale == m.Scale
}

func (m *CipherMatrix) Append(o Matrix) {
	c := o.(*CipherMatrix)
	m.C = append(m.C, c.C...)
	m.Rows += c.Rows
}

func (m *CipherMatrix) NewAcc(rows int) Matrix {
	return NewCipherMatrix(m.PK, rows, m.Cols, m.Scale+1)
}

func (m *PackedMatrix) Dims() (int, int)         { return m.Rows, m.Cols }
func (m *PackedMatrix) AtScale() uint            { return m.Scale }
func (m *PackedMatrix) Key() *paillier.PublicKey { return m.PK }

func (m *PackedMatrix) Decrypt(sk *paillier.PrivateKey) *tensor.Dense { return DecryptPacked(sk, m) }

// VerifyRow checks each ciphertext group of the row: its signed plaintext
// must fit its lanes·W bits (a legitimate packed value is a lane polynomial;
// a corrupted one is ring-wide), and the exact-integer lane extraction must
// reproduce want.
func (m *PackedMatrix) VerifyRow(sk *paillier.PrivateKey, i int, want []float64) bool {
	lc := m.codec()
	for g, c := range m.Row(i) {
		col, lanes := m.groupCol(g), m.laneCount(g)
		v := sk.Decrypt(c)
		if fixedpoint.FromRing(v, sk.N).BitLen() > lanes*int(m.W)+1+spotSlackBits {
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

// Trust also pins the lane layout to one of the key's own two (default or
// wide): every honest encryptor derives it from the modulus size, and a
// decryption allocates by it.
func (m *PackedMatrix) Trust(pk *paillier.PublicKey) error {
	m.PK = pk
	lc, wide := packingFor(pk), widePackingFor(pk)
	if (m.W != lc.W || m.K != lc.K) && (m.W != wide.W || m.K != wide.K) || m.Block <= 0 || m.Cols < 0 || m.Cols%m.Block != 0 {
		return fmt.Errorf("packed layout %d cols / block %d, lanes %d×%d is not the key's", m.Cols, m.Block, m.K, m.W)
	}
	return vetCells(m.C, cellCount(m.Rows, m.GroupsPerRow()), pk)
}

func (m *PackedMatrix) SameLayout(o Matrix) bool {
	c, ok := o.(*PackedMatrix)
	return ok && c.Cols == m.Cols && c.Block == m.Block && c.W == m.W && c.K == m.K && c.Scale == m.Scale
}

func (m *PackedMatrix) Append(o Matrix) {
	c := o.(*PackedMatrix)
	m.C = append(m.C, c.C...)
	m.Rows += c.Rows
}

func (m *PackedMatrix) NewAcc(rows int) Matrix {
	return m.like(rows, m.Cols, m.Block, m.Scale+1)
}

// MulLeft computes ⟦X·W⟧ for dense plaintext X in W's lane format.
func MulLeft(x *tensor.Dense, w Matrix) Matrix {
	if p, ok := w.(*PackedMatrix); ok {
		return MulPlainLeftPacked(x, p)
	}
	return MulPlainLeft(x, w.(*CipherMatrix))
}

// MulLeftCSR is MulLeft for sparse plaintext X.
func MulLeftCSR(x *tensor.CSR, w Matrix) Matrix {
	if p, ok := w.(*PackedMatrix); ok {
		return MulPlainLeftCSRPacked(x, p)
	}
	return MulPlainLeftCSR(x, w.(*CipherMatrix))
}

// TransposeMulAcc accumulates ⟦Xᵀ·G⟧ into acc (from G.NewAcc) for a
// row-chunk pair (x, g).
func TransposeMulAcc(acc Matrix, x *tensor.Dense, g Matrix) {
	if p, ok := g.(*PackedMatrix); ok {
		TransposeMulLeftPackedAcc(acc.(*PackedMatrix), x, p)
		return
	}
	TransposeMulLeftAcc(acc.(*CipherMatrix), x, g.(*CipherMatrix))
}

// TransposeMulCSRAcc accumulates ⟦X[lo:lo+g.Rows]ᵀ·G⟧ into acc for sparse X.
func TransposeMulCSRAcc(acc Matrix, x *tensor.CSR, lo int, g Matrix) {
	if p, ok := g.(*PackedMatrix); ok {
		TransposeMulLeftCSRPackedAcc(acc.(*PackedMatrix), x, lo, p)
		return
	}
	TransposeMulLeftCSRAcc(acc.(*CipherMatrix), x, lo, g.(*CipherMatrix))
}

// LookupRows gathers rows of an encrypted embedding table in its lane format.
func LookupRows(q Matrix, x *tensor.IntMatrix) Matrix {
	if p, ok := q.(*PackedMatrix); ok {
		return LookupPacked(p, x)
	}
	return Lookup(q.(*CipherMatrix), x)
}

// LookupBackwardRows scatter-adds the encrypted derivative ∇E (dim-blocked
// when packed) into the vocab×dim table gradient in ∇E's lane format.
func LookupBackwardRows(gradE Matrix, x *tensor.IntMatrix, vocab, dim int) Matrix {
	if p, ok := gradE.(*PackedMatrix); ok {
		return LookupBackwardPacked(p, x, vocab, dim)
	}
	return LookupBackward(gradE.(*CipherMatrix), x, vocab, dim)
}

// Add returns the homomorphic sum a + b of two matrices of one layout.
func Add(a, b Matrix) Matrix {
	if !a.SameLayout(b) {
		panic(fmt.Sprintf("hetensor: Add of a %T and a %T of another layout", a, b))
	}
	if p, ok := a.(*PackedMatrix); ok {
		return p.AddCipher(b.(*PackedMatrix))
	}
	return a.(*CipherMatrix).AddCipher(b.(*CipherMatrix))
}

// MulRightTransposeAdd returns sum + ⟦G·Wᵀ⟧ for plaintext W in sum's lane
// format. The ciphertext is the left factor, so G must hold one value per
// ciphertext — an unpacked matrix, or a packed one of Block 1 — and a packed
// sum takes the products packed cell by cell (PackCellsLike).
func MulRightTransposeAdd(sum, g Matrix, w *tensor.Dense) Matrix {
	prod := MulPlainRightTranspose(cellsOf(g), w)
	if p, ok := sum.(*PackedMatrix); ok {
		return p.AddCipher(PackCellsLike(prod, p))
	}
	return sum.(*CipherMatrix).AddCipher(prod)
}

// cellsOf views a matrix with one value per ciphertext as a CipherMatrix,
// keeping its table-cache identity.
func cellsOf(m Matrix) *CipherMatrix {
	switch m := m.(type) {
	case *CipherMatrix:
		return m
	case *PackedMatrix:
		if m.GroupsPerRow() == m.Cols {
			return &CipherMatrix{Rows: m.Rows, Cols: m.Cols, Scale: m.Scale, PK: m.PK, C: m.C, id: m.id}
		}
	}
	rows, cols := m.Dims()
	panic(fmt.Sprintf("hetensor: %d×%d %T does not hold one value per ciphertext", rows, cols, m))
}
