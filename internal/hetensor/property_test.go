package hetensor

import (
	"math"
	"testing"
	"testing/quick"

	"blindfl/internal/tensor"
)

// Property-based tests on the homomorphic tensor algebra. Sizes are tiny —
// each check costs real Paillier operations — but the properties are the
// algebraic identities the whole protocol stack relies on.

func clampVals(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = math.Mod(v, 1e3)
	}
	return out
}

// Dec(Enc(a) ⊞ Enc(b)) = a + b for arbitrary float matrices.
func TestPropAddHomomorphism(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		av := clampVals([]float64{a1, a2})
		bv := clampVals([]float64{b1, b2})
		a := tensor.FromSlice(1, 2, av)
		b := tensor.FromSlice(1, 2, bv)
		ca := Encrypt(&testKey.PublicKey, a, 1)
		cb := Encrypt(&testKey.PublicKey, b, 1)
		got := Add(ca, cb).Decrypt(testKey)
		return got.Equal(a.Add(b), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Dec(X·⟦W⟧) = X·W: the plain·cipher matmul is exactly the float matmul up
// to fixed-point tolerance.
func TestPropMatMulHomomorphism(t *testing.T) {
	f := func(x1, x2, x3, x4, w1, w2 float64) bool {
		xv := clampVals([]float64{x1, x2, x3, x4})
		wv := clampVals([]float64{w1, w2})
		x := tensor.FromSlice(2, 2, xv)
		w := tensor.FromSlice(2, 1, wv)
		cw := Encrypt(&testKey.PublicKey, w, 1)
		got := Decrypt(testKey, MulPlainLeft(x, cw))
		want := x.MatMul(w)
		tol := 1e-9 * (1 + want.MaxAbs())
		return got.Equal(want, math.Max(tol, 1e-6))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Linearity: X·(⟦W⟧ ⊞ ⟦V⟧) = X·W + X·V.
func TestPropMatMulDistributesOverCipherAdd(t *testing.T) {
	f := func(seed1, seed2 float64) bool {
		w := tensor.FromSlice(2, 1, clampVals([]float64{seed1, seed2}))
		v := tensor.FromSlice(2, 1, clampVals([]float64{seed2 * 3, seed1 - 7}))
		x := tensor.FromSlice(1, 2, []float64{1.5, -2.25})
		cw := Encrypt(&testKey.PublicKey, w, 1)
		cv := Encrypt(&testKey.PublicKey, v, 1)
		got := MulLeft(x, Add(cw, cv)).Decrypt(testKey)
		want := x.MatMul(w.Add(v))
		return got.Equal(want, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Masking round trip: Dec(⟦v⟧ − φ) + φ = v for any mask.
func TestPropMaskCancels(t *testing.T) {
	f := func(v1, v2, m1, m2 float64) bool {
		v := tensor.FromSlice(1, 2, clampVals([]float64{v1, v2}))
		phi := tensor.FromSlice(1, 2, clampVals([]float64{m1, m2}))
		c := Encrypt(&testKey.PublicKey, v, 1)
		share := c.SubPlainFresh(phi).Decrypt(testKey)
		return share.Add(phi).Equal(v, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Lookup commutes with encryption: Dec(Lookup(⟦Q⟧, X)) = Lookup(Q, X).
func TestPropLookupCommutesWithEncryption(t *testing.T) {
	f := func(i1, i2, i3 uint8) bool {
		q := tensor.FromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
		x := tensor.NewIntMatrix(1, 3)
		x.Set(0, 0, int(i1)%4)
		x.Set(0, 1, int(i2)%4)
		x.Set(0, 2, int(i3)%4)
		cq := Encrypt(&testKey.PublicKey, q, 1)
		got := LookupRows(cq, x).Decrypt(testKey)
		return got.Equal(tensor.Lookup(q, x), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The sparse layer's touched-row gradient is the full transpose product
// restricted to the touched rows, residue for residue: the same kernel over
// the same non-zeros in the same order, signed features included (a negative
// feature is a signed exponent, not a full-width N−|x| one).
func TestPropSubsetGradientMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrandNew(seed)
		x := tensor.RandCSR(rng, 4, 12, 2)
		x.Val[0] = -math.Abs(x.Val[0]) - 0.25 // at least one negative feature
		g := tensor.RandDense(rng, 4, 2, 1)
		cg := Encrypt(&testKey.PublicKey, g, 1)
		touched := touchedOf(x)
		sub := TransposeMulLeftCSRSubset(x, cg, touched)
		full := newMatrix(&testKey.PublicKey, wholeFor(&testKey.PublicKey), x.Cols, g.Cols, 1, 2)
		TransposeMulCSRAcc(full, x, 0, cg)
		for i, k := range touched {
			for j := 0; j < g.Cols; j++ {
				if sub.Row(i)[j].C.Cmp(full.Row(k)[j].C) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func touchedOf(x *tensor.CSR) []int {
	seen := map[int]bool{}
	for _, c := range x.ColIdx {
		seen[c] = true
	}
	out := make([]int, 0, len(seen))
	for k := 0; k < x.Cols; k++ {
		if seen[k] {
			out = append(out, k)
		}
	}
	return out
}

func TestEncryptRowsMatchesFullEncrypt(t *testing.T) {
	rng := mrandNew(99)
	d := tensor.RandDense(rng, 6, 3, 5)
	rows := []int{4, 0, 5}
	c := EncryptRows(&testKey.PublicKey, d, rows, 1)
	got := Decrypt(testKey, c)
	for i, r := range rows {
		for j := 0; j < 3; j++ {
			if math.Abs(got.At(i, j)-d.At(r, j)) > 1e-6 {
				t.Fatalf("row %d mismatch", r)
			}
		}
	}
}
