package hetensor

import (
	"math/big"
	"testing"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// The Matrix contract, over every lane layout: what the protocol layer relies
// on without knowing which one it holds.
func TestMatrixContract(t *testing.T) {
	pk := &testKey.PublicKey
	v := tensor.RandDense(mrandNew(51), 5, 3, 4)
	for _, l := range []Layout{{}, {Packed: true}, {Packed: true, Wide: true}, {Packed: true, Block: 1}} {
		m := EncryptAs(pk, v, 1, l)

		// Views and copies are identity-less and leave the original alone;
		// appending to a view must not write into the matrix it views.
		top, rest := m.RowSlice(0, 2), m.RowSlice(2, 5)
		whole := m.RowSlice(0, 0)
		whole.Append(top)
		whole.Append(rest)
		if got := whole.Decrypt(testKey); !got.Equal(v, 1e-9) {
			t.Fatalf("%+v: reassembled rows decrypt to %v", l, got.Data)
		}
		top.Append(top)
		if got := m.Decrypt(testKey); !got.Equal(v, 1e-9) {
			t.Fatalf("%+v: appending to a view clobbered the matrix it views", l)
		}
		if !m.SameLayout(rest) || m.SameLayout(EncryptAs(pk, v, 2, l)) || m.SameLayout(EncryptAs(pk, v, 1, Layout{Packed: !l.Packed})) ||
			l.Packed && m.SameLayout(EncryptAs(pk, v, 1, Layout{Packed: true, Block: l.Block, Wide: !l.Wide})) {
			t.Fatalf("%+v: SameLayout must hold across heights and fail across scales, kinds and lane widths", l)
		}

		// The spot-check's exact-integer path agrees with the bulk decryption
		// and notices a row that decrypts to something else.
		d := m.Decrypt(testKey)
		if !m.VerifyRow(testKey, 3, d.Row(3)) || m.VerifyRow(testKey, 3, d.Row(4)) {
			t.Fatalf("%+v: VerifyRow", l)
		}

		// An accumulator takes products with the matrix: one scale up, same
		// lane format.
		if acc := m.NewAcc(7); acc.Rows != 7 || acc.Cols != 3 || !m.NewAcc(1).SameLayout(MulLeft(tensor.NewDense(1, 5), m)) {
			t.Fatalf("%+v: NewAcc is not the layout of a product", l)
		}

		// Masking, plain addition and products keep the matrix's lanes and
		// its values, whatever the layout: the conversions' two halves.
		x := tensor.RandDense(mrandNew(52), 2, 5, 3)
		want := Decrypt(testKey, MulPlainLeft(x, Encrypt(pk, v, 1)))
		prod := MulLeft(x, m)
		if got := prod.Decrypt(testKey); !got.Equal(want, 0) {
			t.Fatalf("%+v: product differs from the unpacked one by %g", l, got.Sub(want).MaxAbs())
		}
		mask := tensor.RandDense(mrandNew(53), 2, 3, 1<<20)
		if masked := prod.SubPlainFresh(mask); !masked.SameLayout(prod) || !masked.AddPlain(mask).Decrypt(testKey).Equal(want, 1e-9) {
			t.Fatalf("%+v: SubPlainFresh then AddPlain does not return the product in its lanes", l)
		}
	}
}

// TestMatrixTrustRejects: Trust is the only thing standing between a peer's
// bytes and the kernels, so everything a kernel would index, divide or
// allocate by is checked there.
func TestMatrixTrustRejects(t *testing.T) {
	pk := &testKey.PublicKey
	v := tensor.NewDense(2, 3)
	cases := map[string]func() *Matrix{
		"cipher: fewer cells than the shape": func() *Matrix { m := Encrypt(pk, v, 1); m.Rows = 3; return m },
		"cipher: negative rows":              func() *Matrix { m := Encrypt(pk, v, 1); m.Rows, m.C = -2, nil; return m },
		"cipher: overflowing shape":          func() *Matrix { m := Encrypt(pk, v, 1); m.Rows, m.Cols, m.C = 1<<40, 1<<40, nil; return m },
		"cipher: missing cell":               func() *Matrix { m := Encrypt(pk, v, 1); m.C[1] = nil; return m },
		"cipher: cell outside Z_N²": func() *Matrix {
			m := Encrypt(pk, v, 1)
			m.C[1] = &paillier.Ciphertext{C: new(big.Int).Set(pk.N2)}
			return m
		},
		"cipher: non-invertible cell": func() *Matrix {
			m := Encrypt(pk, v, 1)
			m.C[1] = &paillier.Ciphertext{C: new(big.Int).Set(pk.N)}
			return m
		},
		"packed: lanes between the key's two": func() *Matrix { m := PackEncrypt(pk, v, 1); m.W, m.K = m.W*3/2, 2; return m },
		"packed: zero lanes":                  func() *Matrix { m := PackEncrypt(pk, v, 1); m.K = 0; return m },
		"packed: lanes not the key's":         func() *Matrix { m := PackEncrypt(pk, v, 1); m.K, m.Block, m.Cols = 1<<30, 1<<30, 1<<30; return m },
		"packed: block does not divide":       func() *Matrix { m := PackEncrypt(pk, v, 1); m.Block = 2; return m },
		"packed: zero block":                  func() *Matrix { m := PackEncrypt(pk, v, 1); m.Block = 0; return m },
		"packed: fewer cells than the shape":  func() *Matrix { m := PackEncrypt(pk, v, 1); m.Rows = 9; return m },
	}
	for name, hostile := range cases {
		if err := hostile().Trust(pk); err == nil {
			t.Errorf("%s: trusted", name)
		}
	}
	for _, l := range []Layout{{}, {Packed: true}, {Packed: true, Wide: true}, {Packed: true, Block: 1}} {
		if err := EncryptAs(pk, v, 1, l).Anonymous().Trust(pk); err != nil {
			t.Errorf("%+v: an honest matrix was refused: %v", l, err)
		}
	}
}

// wholeOf encrypts the signed integers vals (already at the given scale) as a
// rows×cols one-lane matrix, cell by cell.
func wholeOf(t *testing.T, rows, cols int, scale uint, vals []*big.Int) *Matrix {
	t.Helper()
	pk := &testKey.PublicKey
	m := newMatrix(pk, wholeFor(pk), rows, cols, 0, scale)
	for i, v := range vals {
		c, err := pk.Encrypt(paillier.Rand, fixedpoint.ToRing(v, pk.N))
		if err != nil {
			t.Fatal(err)
		}
		m.C[i] = c
	}
	return m
}

// TestWholeLanesDecodeAsCells: a one-lane matrix's lane is as wide as the
// modulus, so its lane decoding is the per-cell ring decoding bit for bit —
// for values up to ±2^(|N|−2), far past what any lane of the key's packed
// layouts holds, and for scale-3 products, which is what lets the one
// matrix type replace a per-cell one without moving a single residue.
func TestWholeLanesDecodeAsCells(t *testing.T) {
	pk := &testKey.PublicKey
	top := new(big.Int).Lsh(big.NewInt(1), uint(pk.N.BitLen()-2))
	rng := mrandNew(54)
	vals := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(-1), top, new(big.Int).Neg(top),
		new(big.Int).Sub(top, big.NewInt(1)), new(big.Int).Add(new(big.Int).Neg(top), big.NewInt(1))}
	for len(vals) < 12 {
		v := new(big.Int).Rand(rng, top)
		if rng.Intn(2) == 0 {
			v.Neg(v)
		}
		vals = append(vals, v)
	}
	x1, x2 := tensor.RandDense(rng, 3, 4, 1<<20), tensor.RandDense(rng, 2, 3, 1<<10)
	cases := map[string]*Matrix{
		"extreme values at scale 1": wholeOf(t, 4, 3, 1, vals),
		"extreme values at scale 3": wholeOf(t, 3, 4, 3, vals),
		"a scale-3 product":         MulLeft(x2, MulLeft(x1, Encrypt(pk, tensor.RandDense(rng, 4, 5, 1<<20), 1))),
	}
	for name, m := range cases {
		if m.K != 1 || m.Block != 1 || int(m.W) != pk.N.BitLen() {
			t.Fatalf("%s: lanes %d×%d, block %d: not the whole layout", name, m.K, m.W, m.Block)
		}
		got, ints := Decrypt(testKey, m), DecryptPackedInts(testKey, m)
		for i, c := range m.C {
			plain := testKey.Decrypt(c)
			if want := Codec.DecodeRing(plain, m.Scale, pk.N); got.Data[i] != want {
				t.Fatalf("%s: cell %d decrypts to %v, DecodeRing gives %v", name, i, got.Data[i], want)
			}
			if want := fixedpoint.FromRing(plain, pk.N); ints.V[i].Cmp(want) != 0 {
				t.Fatalf("%s: cell %d decrypts to the integer %v, want %v", name, i, ints.V[i], want)
			}
		}
	}
}

// TestWholeLaneSpotCheck: the spot check compares a row with its own bulk
// decryption, so only the range bound can notice a corrupted ciphertext. For
// one whole-width lane that bound is the value's F·scale bits plus slack, not
// lanes·W — which would be the whole ring and pass anything.
func TestWholeLaneSpotCheck(t *testing.T) {
	pk := &testKey.PublicKey
	m := Encrypt(pk, tensor.RandDense(mrandNew(55), 3, 4, 1<<20), 2)
	garbage, err := pk.Encrypt(paillier.Rand, new(big.Int).Rsh(pk.N, 3)) // ring-wide, as a corrupted cell decrypts
	if err != nil {
		t.Fatal(err)
	}
	m.C[1*4+2] = garbage
	d := m.Decrypt(testKey)
	if !m.VerifyRow(testKey, 0, d.Row(0)) || !m.VerifyRow(testKey, 2, d.Row(2)) {
		t.Fatal("an honest whole-lane row failed its spot check")
	}
	if m.VerifyRow(testKey, 1, d.Row(1)) {
		t.Fatal("a whole-lane row with a ring-wide cell passed its spot check")
	}
}
