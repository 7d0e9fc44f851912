package hetensor

import (
	mrand "math/rand"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

var testKey = mustKey()

func mustKey() *paillier.PrivateKey {
	k, err := paillier.GenerateKey(paillier.Rand, 512)
	if err != nil {
		panic(err)
	}
	return k
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	rng := mrandNew(1)
	d := tensor.RandDense(rng, 4, 3, 100)
	c := Encrypt(&testKey.PublicKey, d, 1)
	got := Decrypt(testKey, c)
	if !got.Equal(d, 1e-6) {
		t.Fatalf("round trip mismatch: %v vs %v", got.Data, d.Data)
	}
}

func TestAddCipher(t *testing.T) {
	rng := mrandNew(2)
	a := tensor.RandDense(rng, 3, 3, 10)
	b := tensor.RandDense(rng, 3, 3, 10)
	ca := Encrypt(&testKey.PublicKey, a, 1)
	cb := Encrypt(&testKey.PublicKey, b, 1)
	got := Add(ca, cb).Decrypt(testKey)
	if !got.Equal(a.Add(b), 1e-6) {
		t.Fatal("Add mismatch")
	}
}

func TestAddPlainAndSubPlainFresh(t *testing.T) {
	rng := mrandNew(3)
	a := tensor.RandDense(rng, 2, 5, 10)
	b := tensor.RandDense(rng, 2, 5, 10)
	ca := Encrypt(&testKey.PublicKey, a, 1)
	if got := ca.AddPlain(b).Decrypt(testKey); !got.Equal(a.Add(b), 1e-6) {
		t.Fatal("AddPlain mismatch")
	}
	if got := ca.SubPlainFresh(b).Decrypt(testKey); !got.Equal(a.Sub(b), 1e-6) {
		t.Fatal("SubPlainFresh mismatch")
	}
}

func TestSubPlainFreshReRandomizes(t *testing.T) {
	a := tensor.FromSlice(1, 1, []float64{5})
	zero := tensor.NewDense(1, 1)
	ca := Encrypt(&testKey.PublicKey, a, 1)
	cb := ca.SubPlainFresh(zero)
	if ca.C[0].C.Cmp(cb.C[0].C) == 0 {
		t.Fatal("SubPlainFresh(0) did not re-randomize the ciphertext")
	}
	if got := Decrypt(testKey, cb); got.At(0, 0) != 5 {
		t.Fatalf("value changed: %v", got.At(0, 0))
	}
}

func TestMulPlainLeft(t *testing.T) {
	rng := mrandNew(4)
	x := tensor.RandDense(rng, 4, 6, 5)
	w := tensor.RandDense(rng, 6, 3, 5)
	cw := Encrypt(&testKey.PublicKey, w, 1)
	got := Decrypt(testKey, MulPlainLeft(x, cw))
	if !got.Equal(x.MatMul(w), 1e-5) {
		t.Fatal("MulPlainLeft mismatch")
	}
}

func TestMulPlainLeftScale(t *testing.T) {
	x := tensor.FromSlice(1, 1, []float64{2})
	w := tensor.FromSlice(1, 1, []float64{3})
	cw := Encrypt(&testKey.PublicKey, w, 1)
	prod := MulPlainLeft(x, cw)
	if prod.Scale != 2 {
		t.Fatalf("scale = %d want 2", prod.Scale)
	}
	if got := Decrypt(testKey, prod); got.At(0, 0) != 6 {
		t.Fatalf("product = %v", got.At(0, 0))
	}
}

func TestMulPlainLeftCSRMatchesDense(t *testing.T) {
	rng := mrandNew(5)
	xs := tensor.RandCSR(rng, 5, 20, 3)
	w := tensor.RandDense(rng, 20, 2, 5)
	cw := Encrypt(&testKey.PublicKey, w, 1)
	// The benchmark's literal: the same cells, read as one-lane rows.
	lit := &CipherMatrix{Rows: cw.Rows, Cols: cw.Cols, Scale: cw.Scale, PK: cw.PK, C: cw.C}
	got := Decrypt(testKey, MulPlainLeftCSR(xs, lit))
	want := xs.ToDense().MatMul(w)
	if !got.Equal(want, 1e-5) {
		t.Fatal("MulPlainLeftCSR mismatch")
	}
}

func TestTransposeMulLeft(t *testing.T) {
	rng := mrandNew(6)
	x := tensor.RandDense(rng, 5, 4, 3)
	g := tensor.RandDense(rng, 5, 2, 3)
	cg := Encrypt(&testKey.PublicKey, g, 1)
	got := Decrypt(testKey, TransposeMulLeft(x, cg))
	if !got.Equal(x.TransposeMatMul(g), 1e-5) {
		t.Fatal("TransposeMulLeft mismatch")
	}
}

func TestTransposeMulLeftCSRMatchesDense(t *testing.T) {
	rng := mrandNew(7)
	xs := tensor.RandCSR(rng, 6, 15, 2)
	g := tensor.RandDense(rng, 6, 3, 3)
	cg := Encrypt(&testKey.PublicKey, g, 1)
	got := TransposeMulCSRAcc(cg.NewAcc(xs.Cols), xs, 0, cg).Decrypt(testKey)
	want := xs.ToDense().Transpose().MatMul(g)
	if !got.Equal(want, 1e-5) {
		t.Fatal("TransposeMulCSRAcc mismatch")
	}
}

func TestMulPlainRightTranspose(t *testing.T) {
	rng := mrandNew(8)
	g := tensor.RandDense(rng, 4, 3, 3)
	w := tensor.RandDense(rng, 6, 3, 3)
	cg := Encrypt(&testKey.PublicKey, g, 1)
	got := Decrypt(testKey, MulPlainRightTranspose(cg, w))
	if !got.Equal(g.MatMulTranspose(w), 1e-5) {
		t.Fatal("MulPlainRightTranspose mismatch")
	}
}

func TestEncryptedLookup(t *testing.T) {
	rng := mrandNew(9)
	q := tensor.RandDense(rng, 5, 3, 2)
	x := tensor.NewIntMatrix(3, 2)
	for i := range x.Data {
		x.Data[i] = rng.Intn(5)
	}
	cq := Encrypt(&testKey.PublicKey, q, 1)
	got := LookupRows(cq, x).Decrypt(testKey)
	if !got.Equal(tensor.Lookup(q, x), 1e-6) {
		t.Fatal("encrypted Lookup mismatch")
	}
}

func TestEncryptedLookupBackward(t *testing.T) {
	rng := mrandNew(10)
	vocab, dim, batch, fields := 6, 2, 4, 2
	g := tensor.RandDense(rng, batch, fields*dim, 2)
	x := tensor.NewIntMatrix(batch, fields)
	for i := range x.Data {
		x.Data[i] = rng.Intn(vocab)
	}
	cg := Encrypt(&testKey.PublicKey, g, 1)
	got := Decrypt(testKey, LookupBackward(cg, x, vocab, dim))
	want := tensor.LookupBackward(g, x, vocab, dim)
	if !got.Equal(want, 1e-5) {
		t.Fatal("encrypted LookupBackward mismatch")
	}
}

func TestAddCipherScaleMismatchPanics(t *testing.T) {
	a := Encrypt(&testKey.PublicKey, tensor.NewDense(1, 1), 1)
	b := Encrypt(&testKey.PublicKey, tensor.NewDense(1, 1), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scale mismatch")
		}
	}()
	Add(a, b)
}

func TestZeroAccumulatorDecryptsToZero(t *testing.T) {
	z := newMatrix(&testKey.PublicKey, wholeFor(&testKey.PublicKey), 2, 2, 1, 1)
	if got := Decrypt(testKey, z); !got.Equal(tensor.NewDense(2, 2), 0) {
		t.Fatalf("zero accumulator = %v", got.Data)
	}
}

func mrandNew(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
