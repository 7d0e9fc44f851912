package hetensor

import (
	"math/big"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// The Matrix contract, over both kinds: what the protocol layer relies on
// without knowing which one it holds.
func TestMatrixContract(t *testing.T) {
	pk := &testKey.PublicKey
	v := tensor.RandDense(mrandNew(51), 5, 3, 4)
	for _, packed := range []bool{false, true} {
		m := EncryptAs(pk, v, 1, packed)

		// Views and copies are identity-less and leave the original alone;
		// appending to a view must not write into the matrix it views.
		top, rest := m.RowSlice(0, 2), m.RowSlice(2, 5)
		whole := m.RowSlice(0, 0)
		whole.Append(top)
		whole.Append(rest)
		if got := whole.Decrypt(testKey); !got.Equal(v, 1e-9) {
			t.Fatalf("packed=%v: reassembled rows decrypt to %v", packed, got.Data)
		}
		top.Append(top)
		if got := m.Decrypt(testKey); !got.Equal(v, 1e-9) {
			t.Fatalf("packed=%v: appending to a view clobbered the matrix it views", packed)
		}
		if !m.SameLayout(rest) || m.SameLayout(EncryptAs(pk, v, 2, packed)) || m.SameLayout(EncryptAs(pk, v, 1, !packed)) {
			t.Fatalf("packed=%v: SameLayout must hold across heights and fail across scales and kinds", packed)
		}

		// The spot-check's exact-integer path agrees with the bulk decryption
		// and notices a row that decrypts to something else.
		d := m.Decrypt(testKey)
		if !m.VerifyRow(testKey, 3, d.Row(3)) || m.VerifyRow(testKey, 3, d.Row(4)) {
			t.Fatalf("packed=%v: VerifyRow", packed)
		}

		// An accumulator takes products with the matrix: one scale up, same
		// lane format.
		if rows, cols := m.NewAcc(7).Dims(); rows != 7 || cols != 3 || !m.NewAcc(1).SameLayout(MulLeft(tensor.NewDense(1, 5), m)) {
			t.Fatalf("packed=%v: NewAcc is not the layout of a product", packed)
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
		"packed: zero lanes":                 func() Matrix { m := PackEncrypt(pk, v, 1); m.K = 0; return m },
		"packed: lanes not the key's":        func() Matrix { m := PackEncrypt(pk, v, 1); m.K, m.Block, m.Cols = 1<<30, 1<<30, 1<<30; return m },
		"packed: block does not divide":      func() Matrix { m := PackEncrypt(pk, v, 1); m.Block = 2; return m },
		"packed: zero block":                 func() Matrix { m := PackEncrypt(pk, v, 1); m.Block = 0; return m },
		"packed: fewer cells than the shape": func() Matrix { m := PackEncrypt(pk, v, 1); m.Rows = 9; return m },
	}
	for name, hostile := range cases {
		if err := hostile().Trust(pk); err == nil {
			t.Errorf("%s: trusted", name)
		}
	}
	for _, packed := range []bool{false, true} {
		if err := EncryptAs(pk, v, 1, packed).Anonymous().Trust(pk); err != nil {
			t.Errorf("packed=%v: an honest matrix was refused: %v", packed, err)
		}
	}
}
