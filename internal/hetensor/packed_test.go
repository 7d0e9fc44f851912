package hetensor

import (
	"crypto/rand"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

func TestPackEncryptDecryptRoundTrip(t *testing.T) {
	rng := mrandNew(30)
	for _, cols := range []int{1, 3, 4, 9} { // below, at, and straddling the lane count
		d := tensor.RandDense(rng, 5, cols, 100)
		m := PackEncrypt(&testKey.PublicKey, d, 1)
		if m.K < 2 {
			t.Fatalf("test key packs only %d lane(s); packing degenerate", m.K)
		}
		got := DecryptPacked(testKey, m)
		if !got.Equal(d, 1e-6) {
			t.Fatalf("cols=%d round trip mismatch: %v vs %v", cols, got.Data, d.Data)
		}
	}
}

func TestPackedUsesFewerCiphertexts(t *testing.T) {
	d := tensor.NewDense(4, 8)
	m := PackEncrypt(&testKey.PublicKey, d, 1)
	unpacked := 4 * 8
	if len(m.C)*m.K < unpacked || len(m.C) >= unpacked {
		t.Fatalf("packed uses %d ciphertexts for %d values (K=%d)", len(m.C), unpacked, m.K)
	}
}

func TestPackedAddCipherMatchesUnpacked(t *testing.T) {
	rng := mrandNew(31)
	a := tensor.RandDense(rng, 3, 6, 50)
	b := tensor.RandDense(rng, 3, 6, 50)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, PackEncrypt(pk, a, 1).AddCipher(PackEncrypt(pk, b, 1)))
	want := Decrypt(testKey, Encrypt(pk, a, 1).AddCipher(Encrypt(pk, b, 1)))
	if !got.Equal(want, 1e-6) {
		t.Fatal("packed AddCipher differs from unpacked")
	}
}

func TestPackedSubPlainFreshMatchesUnpackedAndReRandomizes(t *testing.T) {
	rng := mrandNew(32)
	a := tensor.RandDense(rng, 2, 5, 1<<20) // mask-magnitude values
	mask := tensor.RandDense(rng, 2, 5, 1<<20)
	pk := &testKey.PublicKey
	enc := PackEncrypt(pk, a, 2)
	fresh := enc.SubPlainFresh(mask).(*PackedMatrix)
	got := DecryptPacked(testKey, fresh)
	if !got.Equal(a.Sub(mask), 2e-5) {
		t.Fatal("packed SubPlainFresh wrong value")
	}
	for i := range fresh.C {
		if fresh.C[i].C.Cmp(enc.C[i].C) == 0 {
			t.Fatal("packed SubPlainFresh did not re-randomize")
		}
	}
}

func TestMulPlainLeftPackedMatchesUnpacked(t *testing.T) {
	rng := mrandNew(33)
	x := tensor.RandDense(rng, 4, 7, 2)
	w := tensor.RandDense(rng, 7, 6, 2)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, MulPlainLeftPacked(x, PackEncrypt(pk, w, 1)))
	want := Decrypt(testKey, MulPlainLeft(x, Encrypt(pk, w, 1)))
	if !got.Equal(want, 1e-6) {
		t.Fatal("MulPlainLeftPacked differs from MulPlainLeft")
	}
	if !got.Equal(x.MatMul(w), 1e-5) {
		t.Fatal("MulPlainLeftPacked differs from plaintext matmul")
	}
}

func TestMulPlainLeftCSRPackedMatchesDense(t *testing.T) {
	rng := mrandNew(34)
	xd := tensor.RandCSR(rng, 4, 9, 3)
	w := tensor.RandDense(rng, 9, 5, 2)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, MulPlainLeftCSRPacked(xd, PackEncrypt(pk, w, 1)))
	if !got.Equal(xd.MatMul(w), 1e-5) {
		t.Fatal("MulPlainLeftCSRPacked differs from plaintext sparse matmul")
	}
}

func TestTransposeMulLeftPackedMatchesUnpacked(t *testing.T) {
	rng := mrandNew(35)
	x := tensor.RandDense(rng, 6, 4, 2)
	g := tensor.RandDense(rng, 6, 5, 2)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, TransposeMulLeftPacked(x, PackEncrypt(pk, g, 1)))
	want := Decrypt(testKey, TransposeMulLeft(x, Encrypt(pk, g, 1)))
	if !got.Equal(want, 1e-6) {
		t.Fatal("TransposeMulLeftPacked differs from TransposeMulLeft")
	}
}

func TestTransposeMulLeftCSRPackedMatchesDense(t *testing.T) {
	rng := mrandNew(36)
	x := tensor.RandCSR(rng, 6, 8, 2)
	g := tensor.RandDense(rng, 6, 5, 2)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, TransposeMulLeftCSRPacked(x, PackEncrypt(pk, g, 1)))
	if !got.Equal(x.TransposeMatMul(g), 1e-5) {
		t.Fatal("TransposeMulLeftCSRPacked differs from plaintext")
	}
}

func TestLookupPackedMatchesUnpacked(t *testing.T) {
	rng := mrandNew(37)
	vocab, dim, fields := 6, 5, 3 // dim straddles a lane boundary for K=4
	q := tensor.RandDense(rng, vocab, dim, 3)
	x := tensor.NewIntMatrix(4, fields)
	for i := range x.Data {
		x.Data[i] = rng.Intn(vocab)
	}
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, LookupPacked(PackEncrypt(pk, q, 1), x))
	want := Decrypt(testKey, Lookup(Encrypt(pk, q, 1), x))
	if !got.Equal(want, 1e-6) {
		t.Fatal("LookupPacked differs from Lookup")
	}
}

// TestMulRightTransposeAddMatchesUnpacked: the cross term of the Embed-MatMul
// backward — ciphertext on the left, products packed cell by cell — holds the
// same integers as the unpacked kernel in every lane, for a block below, at
// and above the lane count (K = 4 on the test key), a block whose last group
// is ragged, signed values, an all-zero row of G, wide lanes, and G arriving
// as a Block-1 packed matrix.
func TestMulRightTransposeAddMatchesUnpacked(t *testing.T) {
	pk := &testKey.PublicKey
	if k := Lanes(pk); k != 4 {
		t.Fatalf("test key packs %d lanes, the cases below assume 4", k)
	}
	rng := mrandNew(36)
	for _, dim := range []int{3, 4, 6, 8} {
		for _, wide := range []bool{false, true} {
			g := tensor.RandDense(rng, 5, 3, 1)
			for j := range g.Row(2) {
				g.Row(2)[j] = 0
			}
			w := tensor.RandDense(rng, 2*dim, 3, 1<<20) // two fields of drifted weight rows
			sum := tensor.RandDense(rng, 5, 2*dim, 1<<10)
			want := Decrypt(testKey, Encrypt(pk, sum, 2).AddCipher(MulPlainRightTranspose(Encrypt(pk, g, 1), w)))
			for _, cells := range []Layout{{}, {Packed: true, Block: 1}} {
				got := MulRightTransposeAdd(EncryptAs(pk, sum, 2, Layout{Packed: true, Block: dim, Wide: wide}), EncryptAs(pk, g, 1, cells), w)
				if p := got.(*PackedMatrix); p.Block != dim || len(p.C) != 5*2*p.GroupsPerBlock() {
					t.Fatalf("dim %d wide %v: result is not dim-blocked: %d ciphertexts, block %d", dim, wide, len(p.C), p.Block)
				}
				if d := got.Decrypt(testKey); !d.Equal(want, 0) {
					t.Fatalf("dim %d wide %v cells %+v: differs from the unpacked cross term by %g", dim, wide, cells, d.Sub(want).MaxAbs())
				}
			}
		}
	}
}

// TestPackFlatMatchesUnpacked: a conversion packed across rows decrypts, in
// row-major order, to exactly the values its cells held — signed, mask-sized,
// at scale 2 — in ⌈n/K⌉ ciphertexts, for cell counts below, at and above the
// lane count; a matrix without cells stays the empty row.
func TestPackFlatMatchesUnpacked(t *testing.T) {
	pk := &testKey.PublicKey
	k := Lanes(pk)
	rng := mrandNew(37)
	for _, shape := range [][2]int{{1, 1}, {3, 1}, {4, 1}, {5, 2}, {0, 1}} {
		cells := Encrypt(pk, tensor.RandDense(rng, shape[0], shape[1], 1<<20), 2)
		n := shape[0] * shape[1]
		flat := PackFlat(cells)
		if rows, cols := flat.Dims(); rows != 1 || cols != n {
			t.Fatalf("%v: PackFlat is %d×%d, want 1×%d", shape, rows, cols, n)
		}
		if p, ok := flat.(*PackedMatrix); n > 0 && (!ok || len(p.C) != (n+k-1)/k) {
			t.Fatalf("%v: PackFlat is a %T, want %d packed ciphertexts", shape, flat, (n+k-1)/k)
		}
		if err := flat.Anonymous().Trust(pk); err != nil {
			t.Fatalf("%v: a receiver would refuse it: %v", shape, err)
		}
		got, want := flat.Decrypt(testKey), Decrypt(testKey, cells)
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("%v: value %d is %v, want %v", shape, i, got.Data[i], v)
			}
		}
	}
}

func TestLookupBackwardPackedMatchesUnpacked(t *testing.T) {
	rng := mrandNew(38)
	vocab, dim, fields, batch := 5, 6, 2, 4
	gradE := tensor.RandDense(rng, batch, fields*dim, 2)
	x := tensor.NewIntMatrix(batch, fields)
	for i := range x.Data {
		x.Data[i] = rng.Intn(vocab)
	}
	pk := &testKey.PublicKey
	packed := PackEncryptBlocks(pk, gradE, 1, dim)
	got := DecryptPacked(testKey, LookupBackwardPacked(packed, x, vocab, dim))
	want := Decrypt(testKey, LookupBackward(Encrypt(pk, gradE, 1), x, vocab, dim))
	if !got.Equal(want, 0) {
		t.Fatal("LookupBackwardPacked differs from LookupBackward")
	}
}

func TestPackedLayoutMismatchPanics(t *testing.T) {
	a := PackEncrypt(&testKey.PublicKey, tensor.NewDense(2, 6), 1)
	b := PackEncryptBlocks(&testKey.PublicKey, tensor.NewDense(2, 6), 1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("AddCipher accepted mismatched block layouts")
		}
	}()
	a.AddCipher(b)
}

// --- Throughput benchmarks: the unpacked serial baseline vs the pooled and
// --- packed paths. Run with `make bench`.

func benchDense(rows, cols int) *tensor.Dense {
	return tensor.RandDense(mrandNew(40), rows, cols, 10)
}

// BenchmarkEncryptSerialUnpacked is the baseline: one ciphertext per value,
// blinding exponentiation inline, no goroutine fan-out.
func BenchmarkEncryptSerialUnpacked(b *testing.B) {
	d := benchDense(8, 16)
	pk := &testKey.PublicKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range d.Data {
			m := Codec.EncodeRing(v, 1, pk.N)
			if _, err := pk.Encrypt(paillier.Rand, m); err != nil {
				b.Fatal(err)
			}
			_ = j
		}
	}
}

// BenchmarkEncryptParallelUnpacked is Encrypt as shipped before this change:
// parallel fan-out, inline blinding, one ciphertext per value.
func BenchmarkEncryptParallelUnpacked(b *testing.B) {
	d := benchDense(8, 16)
	pk := &testKey.PublicKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encrypt(pk, d, 1)
	}
}

// BenchmarkEncryptPacked packs K values per ciphertext: ~K× fewer blinding
// exponentiations.
func BenchmarkEncryptPacked(b *testing.B) {
	d := benchDense(8, 16)
	pk := &testKey.PublicKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackEncrypt(pk, d, 1)
	}
}

// BenchmarkEncryptPackedPooled adds the blinding pool on top of packing; with
// a warm pool the critical path per ciphertext is two multiplications. The
// refills run outside the timer, modelling a deployment where precompute
// overlaps communication and plaintext phases of the protocol.
func BenchmarkEncryptPackedPooled(b *testing.B) {
	d := benchDense(8, 16)
	pk := &testKey.PublicKey
	pool := paillier.NewPool(pk, 128, 0, rand.Reader)
	defer pool.Close()
	paillier.RegisterPool(pool)
	defer paillier.UnregisterPool(pk)
	groups := 8 * ((16 + packingFor(pk).K - 1) / packingFor(pk).K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool.WaitAvailable(groups)
		b.StartTimer()
		PackEncrypt(pk, d, 1)
	}
}

func BenchmarkMulPlainLeftUnpacked(b *testing.B) {
	x := benchDense(8, 16)
	w := Encrypt(&testKey.PublicKey, benchDense(16, 8), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeft(x, w)
	}
}

func BenchmarkMulPlainLeftPacked(b *testing.B) {
	x := benchDense(8, 16)
	w := PackEncrypt(&testKey.PublicKey, benchDense(16, 8), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeftPacked(x, w)
	}
}
