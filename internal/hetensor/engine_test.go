package hetensor

import (
	"math/rand"
	"testing"

	"blindfl/internal/tensor"
)

// Cross-checks of the signed/Straus exponentiation engine against the
// textbook full-width MulPlain paths. Both must decrypt bit-exactly equal:
// the engine changes the group elements, never the plaintexts, so the
// decrypted fixed-point values (hence the float64s they decode to) are
// required to be identical — not merely close.

// mixedDense draws a dense matrix with mixed-sign entries, a sprinkle of
// zeros, and an all-negative column to stress the inversion path.
func mixedDense(rng *rand.Rand, rows, cols int) *tensor.Dense {
	d := tensor.NewDense(rows, cols)
	for i := range d.Data {
		switch rng.Intn(5) {
		case 0:
			d.Data[i] = 0
		case 1:
			d.Data[i] = -rng.Float64() * 3
		default:
			d.Data[i] = rng.Float64()*4 - 2
		}
	}
	for r := 0; r < rows; r++ {
		d.Data[r*cols] = -rng.Float64() - 0.25 // column 0 all-negative
	}
	return d
}

// allNegDense is entirely negative: the worst case for the textbook path and
// the strongest exercise of the engine's single-inversion denominators.
func allNegDense(rng *rand.Rand, rows, cols int) *tensor.Dense {
	d := tensor.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = -rng.Float64()*2 - 0.01
	}
	return d
}

// withTextbook runs fn with the textbook paths toggled on, restoring after.
func withTextbook(fn func()) {
	prev := SetTextbook(true)
	defer SetTextbook(prev)
	fn()
}

func requireIdentical(t *testing.T, op string, engine, textbook *tensor.Dense) {
	t.Helper()
	if engine.Rows != textbook.Rows || engine.Cols != textbook.Cols {
		t.Fatalf("%s: shape %d×%d vs %d×%d", op, engine.Rows, engine.Cols, textbook.Rows, textbook.Cols)
	}
	for i := range engine.Data {
		if engine.Data[i] != textbook.Data[i] {
			t.Fatalf("%s: cell %d differs: engine %v, textbook %v", op, i, engine.Data[i], textbook.Data[i])
		}
	}
}

func TestEngineMulPlainLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial, gen := range []func(*rand.Rand, int, int) *tensor.Dense{mixedDense, allNegDense} {
		x := gen(rng, 5, 7)
		w := mixedDense(rng, 7, 3)
		encW := Encrypt(&testKey.PublicKey, w, 1)
		got := Decrypt(testKey, MulPlainLeft(x, encW))
		var want *tensor.Dense
		withTextbook(func() { want = Decrypt(testKey, MulPlainLeft(x, encW)) })
		requireIdentical(t, "MulPlainLeft", got, want)
		_ = trial
	}
}

func TestEngineMulPlainLeftCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.RandCSR(rng, 6, 10, 3)
	w := mixedDense(rng, 10, 3)
	encW := Encrypt(&testKey.PublicKey, w, 1)
	got := Decrypt(testKey, MulLeftCSR(x, encW))
	var want *tensor.Dense
	withTextbook(func() { want = Decrypt(testKey, MulLeftCSR(x, encW)) })
	requireIdentical(t, "MulPlainLeftCSR", got, want)
}

func TestEngineTransposeMulLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := mixedDense(rng, 6, 4)
	g := mixedDense(rng, 6, 3)
	encG := Encrypt(&testKey.PublicKey, g, 1)
	got := Decrypt(testKey, TransposeMulLeft(x, encG))
	var want *tensor.Dense
	withTextbook(func() { want = Decrypt(testKey, TransposeMulLeft(x, encG)) })
	requireIdentical(t, "TransposeMulLeft", got, want)
}

func TestEngineTransposeMulLeftCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := tensor.RandCSR(rng, 6, 8, 2)
	g := mixedDense(rng, 6, 3)
	encG := Encrypt(&testKey.PublicKey, g, 1)
	run := func() *tensor.Dense { return TransposeMulCSRAcc(encG.NewAcc(x.Cols), x, 0, encG).Decrypt(testKey) }
	got := run()
	var want *tensor.Dense
	withTextbook(func() { want = run() })
	requireIdentical(t, "TransposeMulCSRAcc", got, want)
}

func TestEngineMulPlainRightTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	g := mixedDense(rng, 5, 3)
	w := mixedDense(rng, 4, 3)
	encG := Encrypt(&testKey.PublicKey, g, 1)
	got := Decrypt(testKey, MulPlainRightTranspose(encG, w))
	var want *tensor.Dense
	withTextbook(func() { want = Decrypt(testKey, MulPlainRightTranspose(encG, w)) })
	requireIdentical(t, "MulPlainRightTranspose", got, want)
}

func TestEnginePackedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	pk := &testKey.PublicKey

	x := mixedDense(rng, 5, 6)
	w := allNegDense(rng, 6, 4)
	packW := PackEncrypt(pk, w, 1)
	got := DecryptPacked(testKey, MulPlainLeftPacked(x, packW))
	var want *tensor.Dense
	withTextbook(func() { want = DecryptPacked(testKey, MulPlainLeftPacked(x, packW)) })
	requireIdentical(t, "MulPlainLeftPacked", got, want)

	xs := tensor.RandCSR(rng, 5, 6, 2)
	got = MulLeftCSR(xs, packW).Decrypt(testKey)
	withTextbook(func() { want = MulLeftCSR(xs, packW).Decrypt(testKey) })
	requireIdentical(t, "packed MulLeftCSR", got, want)

	g := mixedDense(rng, 5, 4)
	packG := PackEncrypt(pk, g, 1)
	xt := mixedDense(rng, 5, 3)
	got = DecryptPacked(testKey, TransposeMulLeftPacked(xt, packG))
	withTextbook(func() { want = DecryptPacked(testKey, TransposeMulLeftPacked(xt, packG)) })
	requireIdentical(t, "TransposeMulLeftPacked", got, want)

	xts := tensor.RandCSR(rng, 5, 7, 2)
	csrT := func() *tensor.Dense {
		return TransposeMulCSRAcc(packG.NewAcc(xts.Cols), xts, 0, packG).Decrypt(testKey)
	}
	got = csrT()
	withTextbook(func() { want = csrT() })
	requireIdentical(t, "packed TransposeMulCSRAcc", got, want)
}

// TestEngineAccumulates checks TransposeMulAcc against a pre-loaded
// accumulator: engine results must fold into existing partial sums exactly
// like the textbook path (the streamed backward-pass pattern).
func TestEngineAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := mixedDense(rng, 4, 3)
	g := mixedDense(rng, 4, 2)
	encG := Encrypt(&testKey.PublicKey, g, 1)

	run := func() *tensor.Dense {
		acc := newMatrix(&testKey.PublicKey, wholeFor(&testKey.PublicKey), x.Cols, g.Cols, 1, 2)
		TransposeMulAcc(acc, x, encG) // chunk 1
		TransposeMulAcc(acc, x, encG) // chunk 2: same product again
		return Decrypt(testKey, acc)
	}
	got := run()
	var want *tensor.Dense
	withTextbook(func() { want = run() })
	requireIdentical(t, "TransposeMulAcc×2", got, want)
}

func BenchmarkMulPlainLeftTextbook(b *testing.B) {
	benchMulPlainLeftEngine(b, true)
}

func BenchmarkMulPlainLeftEngine(b *testing.B) {
	benchMulPlainLeftEngine(b, false)
}

func benchMulPlainLeftEngine(b *testing.B, textbook bool) {
	prev := SetTextbook(textbook)
	defer SetTextbook(prev)
	rng := rand.New(rand.NewSource(31))
	x := mixedDense(rng, 16, 32)
	w := mixedDense(rng, 32, 4)
	encW := Encrypt(&testKey.PublicKey, w, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeft(x, encW)
	}
}
