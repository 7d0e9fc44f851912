package hetensor

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"blindfl/internal/fixedpoint"
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
	got := Add(PackEncrypt(pk, a, 1), PackEncrypt(pk, b, 1)).Decrypt(testKey)
	want := Add(Encrypt(pk, a, 1), Encrypt(pk, b, 1)).Decrypt(testKey)
	if !got.Equal(want, 1e-6) {
		t.Fatal("packed Add differs from unpacked")
	}
}

func TestPackedSubPlainFreshMatchesUnpackedAndReRandomizes(t *testing.T) {
	rng := mrandNew(32)
	a := tensor.RandDense(rng, 2, 5, 1<<20) // mask-magnitude values
	mask := tensor.RandDense(rng, 2, 5, 1<<20)
	pk := &testKey.PublicKey
	enc := PackEncrypt(pk, a, 2)
	fresh := enc.SubPlainFresh(mask)
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
	got := MulLeftCSR(xd, PackEncrypt(pk, w, 1)).Decrypt(testKey)
	if !got.Equal(xd.MatMul(w), 1e-5) {
		t.Fatal("packed MulLeftCSR differs from plaintext sparse matmul")
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
	pg := PackEncrypt(pk, g, 1)
	got := TransposeMulCSRAcc(pg.NewAcc(x.Cols), x, 0, pg).Decrypt(testKey)
	if !got.Equal(x.TransposeMatMul(g), 1e-5) {
		t.Fatal("packed TransposeMulCSRAcc differs from plaintext")
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
	want := LookupRows(Encrypt(pk, q, 1), x).Decrypt(testKey)
	if !got.Equal(want, 1e-6) {
		t.Fatal("LookupPacked differs from the unpacked LookupRows")
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
			want := Add(Encrypt(pk, sum, 2), MulPlainRightTranspose(Encrypt(pk, g, 1), w)).Decrypt(testKey)
			for _, cells := range []Layout{{}, {Packed: true, Block: 1}} {
				got := MulRightTransposeAdd(EncryptAs(pk, sum, 2, Layout{Packed: true, Block: dim, Wide: wide}), EncryptAs(pk, g, 1, cells), w)
				if got.Block != dim || len(got.C) != 5*2*got.GroupsPerBlock() {
					t.Fatalf("dim %d wide %v: result is not dim-blocked: %d ciphertexts, block %d", dim, wide, len(got.C), got.Block)
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
		if flat.Rows != 1 || flat.Cols != n {
			t.Fatalf("%v: PackFlat is %d×%d, want 1×%d", shape, flat.Rows, flat.Cols, n)
		}
		if n > 0 && (flat.K != k || len(flat.C) != (n+k-1)/k) {
			t.Fatalf("%v: PackFlat is %d ciphertexts of %d lanes, want %d packed ciphertexts", shape, len(flat.C), flat.K, (n+k-1)/k)
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
	packed := EncryptAs(pk, gradE, 1, Layout{Packed: true, Block: dim})
	got := LookupBackwardRows(packed, x, vocab, dim).Decrypt(testKey)
	want := LookupBackwardRows(Encrypt(pk, gradE, 1), x, vocab, dim).Decrypt(testKey)
	if !got.Equal(want, 0) {
		t.Fatal("packed LookupBackwardRows differs from the unpacked one")
	}
}

func TestPackedLayoutMismatchPanics(t *testing.T) {
	a := PackEncrypt(&testKey.PublicKey, tensor.NewDense(2, 6), 1)
	b := EncryptAs(&testKey.PublicKey, tensor.NewDense(2, 6), 1, Layout{Packed: true, Block: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted mismatched block layouts")
		}
	}()
	Add(a, b)
}

// requireBothHalves fails unless Decrypt and DecryptPackedInts read every
// ciphertext of m as the both-halves decryption does, residue for residue.
func requireBothHalves(t *testing.T, what string, m *Matrix) *BigMatrix {
	t.Helper()
	got, ints := Decrypt(testKey, m), DecryptPackedInts(testKey, m)
	lc, gpr, n := m.codec(), m.GroupsPerRow(), testKey.N
	for c, ct := range m.C {
		i, g := c/gpr, c%gpr
		col, lanes := m.groupCol(g), m.laneCount(g)
		plain := testKey.Decrypt(ct)
		wantF, wantI := lc.UnpackRing(plain, lanes, m.Scale, n), lc.UnpackInts(fixedpoint.FromRing(plain, n), lanes)
		for l := 0; l < lanes; l++ {
			if got.At(i, col+l) != wantF[l] || ints.At(i, col+l).Cmp(wantI[l]) != 0 {
				t.Fatalf("%s: ciphertext %d lane %d decrypts to %v / %v, both halves give %v / %v",
					what, c, l, got.At(i, col+l), ints.At(i, col+l), wantF[l], wantI[l])
			}
		}
	}
	return ints
}

// TestDecryptAtLaneBoundMatchesBothHalves: a ciphertext of L lanes is
// decrypted at the bound 2^(L·W) — one CRT half where L·W + 2 ≤ |p| (the test
// key's default lanes at fills 1–2, its wide lanes at fill 1), both above —
// and reads what both halves read, for every layout at every fill, with
// every lane at the edge of the lane invariant, ±(2^(W−1) − 1), and for
// masked serve products at every fill.
func TestDecryptAtLaneBoundMatchesBothHalves(t *testing.T) {
	pk := &testKey.PublicKey
	rng := mrandNew(62)
	for _, lc := range []fixedpoint.LaneCodec{packingFor(pk), widePackingFor(pk), wholeFor(pk)} {
		edge := new(big.Int).Lsh(big.NewInt(1), lc.W-1)
		edge.Sub(edge, big.NewInt(1))
		if half := new(big.Int).Rsh(pk.N, 1); edge.Cmp(half) > 0 { // one whole lane: the ring's signed range
			edge = half
		}
		for fill := 1; fill <= lc.K; fill++ {
			const rows = 4 // all +edge, all −edge, alternating, random signs
			m := newMatrix(pk, lc, rows, fill, fill, 2)
			want := make([]*big.Int, rows*fill)
			for i := 0; i < rows; i++ {
				for l := 0; l < fill; l++ {
					v := new(big.Int).Set(edge)
					if i == 1 || i == 2 && l%2 == 1 || i == 3 && rng.Intn(2) == 0 {
						v.Neg(v)
					}
					want[i*fill+l] = v
				}
				c, err := pk.Encrypt(paillier.Rand, fixedpoint.ToRing(lc.PackEncoded(want[i*fill:(i+1)*fill]), pk.N))
				if err != nil {
					t.Fatal(err)
				}
				m.C[i] = c
			}
			ints := requireBothHalves(t, fmt.Sprintf("%d×%d-bit lanes at fill %d", lc.K, lc.W, fill), m)
			for c, v := range want {
				if ints.V[c].Cmp(v) != 0 {
					t.Fatalf("%d×%d-bit lanes at fill %d: lane %d decrypts to %v, encrypted %v", lc.K, lc.W, fill, c, ints.V[c], v)
				}
			}
		}
	}
	v := Encrypt(pk, mixedDense(rng, 5, 3), 1)
	for fill := 1; fill <= Lanes(pk); fill++ {
		_, masked := ServeMask(mrand.New(mrand.NewSource(int64(fill))), ServeProducts(mixedDense(rng, fill, 5), v))
		requireBothHalves(t, fmt.Sprintf("masked serve products at fill %d", fill), masked)
	}
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
