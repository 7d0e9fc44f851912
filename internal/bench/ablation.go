package bench

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/rng"
	"blindfl/internal/tensor"
)

// Ablations runs the design-choice studies: mask width, the encrypted-weight
// cache, sparse ciphertext products, decryption, key size and traffic. They
// quantify the individual decisions behind BlindFL's numbers rather than
// reproduce a specific paper table.
func Ablations(quick bool) []*Table {
	return []*Table{
		AblationMaskWidth(),
		AblationCipherCache(quick),
		AblationSparseCipherMatMul(quick),
		AblationDecryption(),
		AblationKeySize(quick),
		Traffic(),
	}
}

// AblationMaskWidth sweeps the HE2SS mask magnitude: wider masks hide the
// shares better (share/value ratio grows) at a small fixed-point
// reconstruction cost that stays far below model noise.
func AblationMaskWidth() *Table {
	skA, skB := protocol.TestKeys()
	t := &Table{
		Title:  "Ablation: HE2SS mask magnitude",
		Header: []string{"mask ±2^k", "max reconstruction error", "share/value magnitude"},
	}
	v := tensor.FromSlice(4, 4, []float64{
		0.5, -1.25, 2, -0.125, 3.5, 0, -2.75, 1,
		0.25, -0.5, 1.5, -3, 0.75, 2.25, -1, 0.1,
	})
	for _, k := range []uint{8, 12, 16, 20, 24, 28} {
		pa, pb, err := protocol.Pipe(skA, skB, rng.Derive(600, fmt.Sprintf("mask-width:%d", k)))
		if err != nil {
			panic(err)
		}
		pa.MaskMag = math.Ldexp(1, int(k))
		pb.MaskMag = pa.MaskMag
		var shareA, shareB *tensor.Dense
		if err := protocol.RunParties(pa, pb, func() {
			c := hetensor.Encrypt(pa.PeerPK, v, 1)
			shareA = pa.HE2SSSend(c)
		}, func() {
			shareB = pb.HE2SSRecv()
		}); err != nil {
			panic(err)
		}
		rec := shareA.Add(shareB)
		errMax := rec.Sub(v).MaxAbs()
		ratio := shareB.MaxAbs() / v.MaxAbs()
		t.Add(fmt.Sprintf("2^%d", k), fmt.Sprintf("%.3g", errMax), fmt.Sprintf("%.3g", ratio))
	}
	t.Note("reconstruction stays exact to fixed-point tolerance at every width; hiding strength grows with the mask")
	return t
}

// AblationCipherCache compares BlindFL's cached-⟦V⟧ design (encrypt once,
// refresh only updated pieces) against re-encrypting the whole piece every
// forward — the communication/computation the paper credits for its dense
// advantage over per-iteration Beaver-triple generation.
func AblationCipherCache(quick bool) *Table {
	dim, out, batch := 256, 8, 64
	if quick {
		dim, batch = 128, 32
	}
	rng := rand.New(rand.NewSource(61))
	skA, _ := protocol.TestKeys()
	pk := &skA.PublicKey
	v := tensor.RandDense(rng, dim, out, 0.1)
	x := tensor.RandDense(rng, batch, dim, 1)

	// Cached: the forward is one plain·cipher matmul.
	enc := hetensor.Encrypt(pk, v, 1)
	start := time.Now()
	hetensor.MulLeft(x, enc)
	cached := time.Since(start).Seconds()

	// Naive: re-encrypt V, then multiply.
	start = time.Now()
	enc2 := hetensor.Encrypt(pk, v, 1)
	hetensor.MulLeft(x, enc2)
	naive := time.Since(start).Seconds()

	t := &Table{
		Title:  "Ablation: cached ⟦V⟧ vs re-encrypt per step (dense forward)",
		Header: []string{"variant", "seconds", "relative"},
	}
	t.Add("cached ⟦V⟧ (BlindFL)", fmt.Sprintf("%.3f", cached), "1.00×")
	t.Add("re-encrypt per step", fmt.Sprintf("%.3f", naive), fmt.Sprintf("%.2f×", naive/cached))
	t.Note("keeping ⟦V⟧ across iterations removes %d encryptions per forward", dim*out)
	return t
}

// AblationSparseCipherMatMul measures the plain·cipher matmul at several
// sparsity levels — the mechanism behind Table 5's sparse speedups.
func AblationSparseCipherMatMul(quick bool) *Table {
	dim, out, batch := 512, 4, 64
	if quick {
		dim, batch = 256, 32
	}
	rng := rand.New(rand.NewSource(62))
	skA, _ := protocol.TestKeys()
	enc := hetensor.Encrypt(&skA.PublicKey, tensor.RandDense(rng, dim, out, 0.1), 1)

	t := &Table{
		Title:  "Ablation: sparse vs dense plain·cipher matmul",
		Header: []string{"nnz/row", "sparsity", "seconds", "speedup vs dense"},
	}
	dense := tensor.RandDense(rng, batch, dim, 1)
	start := time.Now()
	hetensor.MulLeft(dense, enc)
	denseSec := time.Since(start).Seconds()
	t.Add(fmt.Sprintf("%d", dim), "0%", fmt.Sprintf("%.3f", denseSec), "1.0×")

	for _, nnz := range []int{64, 16, 4} {
		x := tensor.RandCSR(rng, batch, dim, nnz)
		start := time.Now()
		hetensor.MulLeftCSR(x, enc)
		sec := time.Since(start).Seconds()
		t.Add(fmt.Sprintf("%d", nnz), fmt.Sprintf("%.1f%%", x.Sparsity()*100),
			fmt.Sprintf("%.3f", sec), fmt.Sprintf("%.1f×", denseSec/sec))
	}
	t.Note("homomorphic work scales with non-zeros; data outsourcing cannot exploit this because shares must look dense")
	return t
}

// AblationDecryption compares CRT and textbook decryption.
func AblationDecryption() *Table {
	skA, _ := protocol.TestKeys()
	c, err := skA.PublicKey.Encrypt(paillier.Rand, bigOne())
	if err != nil {
		panic(err)
	}
	const iters = 50
	start := time.Now()
	for i := 0; i < iters; i++ {
		skA.Decrypt(c)
	}
	crt := time.Since(start).Seconds() / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		skA.DecryptTextbook(c)
	}
	textbook := time.Since(start).Seconds() / iters

	t := &Table{
		Title:  "Ablation: CRT vs textbook Paillier decryption (512-bit key)",
		Header: []string{"variant", "seconds/op", "relative"},
	}
	t.Add("CRT (BlindFL)", fmt.Sprintf("%.6f", crt), "1.00×")
	t.Add("textbook", fmt.Sprintf("%.6f", textbook), fmt.Sprintf("%.2f×", textbook/crt))
	return t
}

// AblationKeySize sweeps the Paillier modulus size over the three core ops.
func AblationKeySize(quick bool) *Table {
	sizes := []int{256, 512, 1024}
	if quick {
		sizes = []int{256, 512}
	}
	t := &Table{
		Title:  "Ablation: Paillier key size",
		Header: []string{"bits", "encrypt (ms)", "decrypt (ms)", "scalar-mul (ms)"},
	}
	for _, bits := range sizes {
		sk, err := paillier.GenerateKey(paillier.Rand, bits)
		if err != nil {
			panic(err)
		}
		c, _ := sk.PublicKey.Encrypt(paillier.Rand, bigOne())
		const iters = 20
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := sk.PublicKey.Encrypt(paillier.Rand, bigOne()); err != nil {
				panic(err)
			}
		}
		enc := time.Since(start).Seconds() / iters * 1000
		start = time.Now()
		for i := 0; i < iters; i++ {
			sk.Decrypt(c)
		}
		dec := time.Since(start).Seconds() / iters * 1000
		s := hetensor.Codec.Encode(1.2345, 1)
		start = time.Now()
		for i := 0; i < iters; i++ {
			sk.PublicKey.MulPlain(c, s)
		}
		mul := time.Since(start).Seconds() / iters * 1000
		t.Add(fmt.Sprintf("%d", bits), fmt.Sprintf("%.3f", enc), fmt.Sprintf("%.3f", dec), fmt.Sprintf("%.3f", mul))
	}
	t.Note("tests use 512-bit keys; production should use ≥2048 (cost grows ~cubically)")
	return t
}

func bigOne() *big.Int { return big.NewInt(12345) }
