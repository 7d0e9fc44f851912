package hetensor

import (
	"math/big"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// The Matrix contract, over both kinds and every layout: what the protocol layer relies on
// without knowing which one it holds.
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
		if rows, cols := m.NewAcc(7).Dims(); rows != 7 || cols != 3 || !m.NewAcc(1).SameLayout(MulLeft(tensor.NewDense(1, 5), m)) {
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
	cases := map[string]func() Matrix{
		"cipher: fewer cells than the shape": func() Matrix { m := Encrypt(pk, v, 1); m.Rows = 3; return m },
		"cipher: negative rows":              func() Matrix { m := Encrypt(pk, v, 1); m.Rows, m.C = -2, nil; return m },
		"cipher: overflowing shape":          func() Matrix { m := Encrypt(pk, v, 1); m.Rows, m.Cols, m.C = 1<<40, 1<<40, nil; return m },
		"cipher: missing cell":               func() Matrix { m := Encrypt(pk, v, 1); m.C[1] = nil; return m },
		"cipher: cell outside Z_N²": func() Matrix {
			m := Encrypt(pk, v, 1)
			m.C[1] = &paillier.Ciphertext{C: new(big.Int).Set(pk.N2)}
			return m
		},
		"cipher: non-invertible cell": func() Matrix {
			m := Encrypt(pk, v, 1)
			m.C[1] = &paillier.Ciphertext{C: new(big.Int).Set(pk.N)}
			return m
		},
		"packed: lanes between the key's two": func() Matrix { m := PackEncrypt(pk, v, 1); m.W, m.K = m.W*3/2, 2; return m },
		"packed: zero lanes":                  func() Matrix { m := PackEncrypt(pk, v, 1); m.K = 0; return m },
		"packed: lanes not the key's":         func() Matrix { m := PackEncrypt(pk, v, 1); m.K, m.Block, m.Cols = 1<<30, 1<<30, 1<<30; return m },
		"packed: block does not divide":       func() Matrix { m := PackEncrypt(pk, v, 1); m.Block = 2; return m },
		"packed: zero block":                  func() Matrix { m := PackEncrypt(pk, v, 1); m.Block = 0; return m },
		"packed: fewer cells than the shape":  func() Matrix { m := PackEncrypt(pk, v, 1); m.Rows = 9; return m },
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
