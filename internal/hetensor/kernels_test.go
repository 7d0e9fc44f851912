package hetensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blindfl/internal/tensor"
)

// kernelLayouts are the lane formats every kernel runs in: one value per
// ciphertext, the key's default lanes, its wide lanes, and default lanes in
// blocks narrower than a row (3 columns: one ragged group each at K = 4).
var kernelLayouts = []struct {
	name string
	l    Layout
}{
	{"unpacked", Layout{}},
	{"packed", Layout{Packed: true}},
	{"wide", Layout{Packed: true, Wide: true}},
	{"blocked", Layout{Packed: true, Block: 3}},
}

// kernelCase runs one kernel on operands drawn from rng in layout l and
// returns its encrypted result with the plaintext result it must decrypt to.
type kernelCase func(rng *rand.Rand, l Layout) (*Matrix, *tensor.Dense)

type namedKernel struct {
	name string
	run  kernelCase
}

// kernelCases draws every operand's values signed, with zeros; cols is the
// width of the encrypted operands and a multiple of the blocked layout's 3.
func kernelCases(rows, inner, cols int) []namedKernel {
	pk := &testKey.PublicKey
	const vocab, dim = 5, 3
	blocks := func(l Layout) Layout { // lookups lay their tables out one field per block
		if l.Packed {
			l.Block = dim
		}
		return l
	}
	indices := func(rng *rand.Rand, n, fields int) *tensor.IntMatrix {
		x := tensor.NewIntMatrix(n, fields)
		for i := range x.Data {
			x.Data[i] = rng.Intn(vocab)
		}
		return x
	}
	return []namedKernel{
		{"MulLeft", func(rng *rand.Rand, l Layout) (*Matrix, *tensor.Dense) {
			x, w := mixedDense(rng, rows, inner), mixedDense(rng, inner, cols)
			return MulLeft(x, EncryptAs(pk, w, 1, l)), x.MatMul(w)
		}},
		{"MulLeftCSR", func(rng *rand.Rand, l Layout) (*Matrix, *tensor.Dense) {
			x, w := tensor.RandCSR(rng, rows, inner, 2), mixedDense(rng, inner, cols)
			return MulLeftCSR(x, EncryptAs(pk, w, 1, l)), x.MatMul(w)
		}},
		// Two row-chunks into one accumulator: the streamed backward pass.
		{"TransposeMulAcc", func(rng *rand.Rand, l Layout) (*Matrix, *tensor.Dense) {
			x, g := mixedDense(rng, rows, inner), mixedDense(rng, rows, cols)
			eg := EncryptAs(pk, g, 1, l)
			acc, h := eg.NewAcc(inner), rows/2
			TransposeMulAcc(acc, x.RowSlice(0, h), eg.RowSlice(0, h))
			return TransposeMulAcc(acc, x.RowSlice(h, rows), eg.RowSlice(h, rows)), x.TransposeMatMul(g)
		}},
		{"TransposeMulCSRAcc", func(rng *rand.Rand, l Layout) (*Matrix, *tensor.Dense) {
			x, g := tensor.RandCSR(rng, rows, inner, 2), mixedDense(rng, rows, cols)
			eg := EncryptAs(pk, g, 1, l)
			acc, h := eg.NewAcc(inner), rows/2
			TransposeMulCSRAcc(acc, x, 0, eg.RowSlice(0, h))
			return TransposeMulCSRAcc(acc, x, h, eg.RowSlice(h, rows)), x.TransposeMatMul(g)
		}},
		{"LookupRows", func(rng *rand.Rand, l Layout) (*Matrix, *tensor.Dense) {
			q, x := mixedDense(rng, vocab, dim), indices(rng, rows, cols/dim)
			return LookupRows(EncryptAs(pk, q, 1, l), x), tensor.Lookup(q, x)
		}},
		{"LookupBackwardRows", func(rng *rand.Rand, l Layout) (*Matrix, *tensor.Dense) {
			g, x := mixedDense(rng, rows, cols), indices(rng, rows, cols/dim)
			return LookupBackwardRows(EncryptAs(pk, g, 1, blocks(l)), x, vocab, dim), tensor.LookupBackward(g, x, vocab, dim)
		}},
		{"Add", func(rng *rand.Rand, l Layout) (*Matrix, *tensor.Dense) {
			a, b := mixedDense(rng, rows, cols), mixedDense(rng, rows, cols)
			return Add(EncryptAs(pk, a, 1, l), EncryptAs(pk, b, 1, l)), a.Add(b)
		}},
	}
}

// runKernel runs c under the engine and under the textbook path from the
// same operands, and fails unless both decrypt to the plaintext result and
// to each other exactly.
func runKernel(t *testing.T, name string, c kernelCase, seed int64, l Layout) {
	t.Helper()
	run := func() (*tensor.Dense, *tensor.Dense) {
		got, want := c(rand.New(rand.NewSource(seed)), l)
		return got.Decrypt(testKey), want
	}
	engine, want := run()
	var textbook *tensor.Dense
	withTextbook(func() { textbook, _ = run() })
	requireIdentical(t, name+" engine/textbook", engine, textbook)
	if engine.Rows != want.Rows || engine.Cols != want.Cols {
		t.Fatalf("%s: result is %d×%d, want %d×%d", name, engine.Rows, engine.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.Abs(engine.Data[i]-v) > 1e-6*(1+math.Abs(v)) {
			t.Fatalf("%s: cell %d decrypts to %v, plaintext %v", name, i, engine.Data[i], v)
		}
	}
}

// TestKernelsDifferential runs every kernel in every lane format under both
// exponentiation paths against the plaintext product.
func TestKernelsDifferential(t *testing.T) {
	if k := Lanes(&testKey.PublicKey); k != 4 {
		t.Fatalf("test key packs %d lanes, the blocked layout assumes 4", k)
	}
	for _, k := range kernelCases(6, 7, 6) {
		for _, lay := range kernelLayouts {
			t.Run(k.name+"/"+lay.name, func(t *testing.T) { runKernel(t, k.name, k.run, 41, lay.l) })
		}
	}
}

// FuzzKernels draws a kernel, a lane format, a shape and signed operands,
// and checks the engine path against the textbook one and the plaintext. The
// last kernel index is ServeProducts, which has no textbook path: a fill of
// 1…3K requests, uncached or under a budget that affords some or all comb
// rows, residue for residue against the packed-exponent reference.
func FuzzKernels(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(3), uint8(4), uint8(1))
	f.Add(int64(2), uint8(3), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Add(int64(3), uint8(5), uint8(3), uint8(5), uint8(2), uint8(3))
	f.Add(int64(4), uint8(7), uint8(0), uint8(8), uint8(5), uint8(1))
	f.Add(int64(5), uint8(7), uint8(2), uint8(11), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, kernel, layout, rows, inner, blocks uint8) {
		r, n, c := 2+int(rows%5), 1+int(inner%6), 3*(1+int(blocks%3))
		cases := kernelCases(r, n, c)
		if i := int(kernel) % (len(cases) + 1); i < len(cases) {
			k := cases[i]
			lay := kernelLayouts[int(layout)%len(kernelLayouts)]
			runKernel(t, fmt.Sprintf("%s/%s %d×%d×%d", k.name, lay.name, r, n, c), k.run, seed, lay.l)
			return
		}
		budgets := []int64{0, 256 << 10, 64 << 20}
		fill := 1 + int(rows)%(3*Lanes(&testKey.PublicKey))
		checkServeCase(t, seed, fill, n, 1+int(blocks%3), budgets[int(layout)%len(budgets)])
	})
}
