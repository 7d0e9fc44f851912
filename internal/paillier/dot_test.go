package paillier

import (
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"
)

// Differential suite for the dot kernel. Every engine configuration computes
// the same group element, so the single-chain kernel is checked residue for
// residue against the formula it replaced — Π cᵢ^{|eᵢ|} over the positive
// exponents times the inverse of the same over the negative ones, mod N² —
// computed with nothing but big.Int.Exp and ModInverse.

// dotReference is the old formula, spelled out.
func dotReference(pk *PublicKey, cs []*Ciphertext, es []SignedExp) *big.Int {
	pos, neg := big.NewInt(1), big.NewInt(1)
	for i, e := range es {
		if e.IsZero() {
			continue
		}
		acc := pos
		if e.Neg {
			acc = neg
		}
		acc.Mul(acc, new(big.Int).Exp(cs[i].C, e.Mag, pk.N2)).Mod(acc, pk.N2)
	}
	return pos.Mul(pos, new(big.Int).ModInverse(neg, pk.N2)).Mod(pos, pk.N2)
}

// Sign/shape patterns the suite and the fuzz target draw exponents from.
const (
	patMixed    = iota // random signs, random widths up to bits
	patAllNeg          // every exponent negative
	patAllZero         // nothing live
	patSingle          // one live base
	patZeroDigs        // powers of two: every window digit but one is zero
	patLeadZero        // one full-width exponent, the rest a few bits: leading zero windows
	patSparse          // mostly zero
	numPatterns
)

// dotCase draws n bases and exponents of the given pattern from seed.
func dotCase(pk *PublicKey, seed int64, n, bits, pattern int) ([]*Ciphertext, []SignedExp) {
	rng := mrand.New(mrand.NewSource(seed))
	cs := make([]*Ciphertext, n)
	es := make([]SignedExp, n)
	width := func() *big.Int { return new(big.Int).Lsh(one, uint(1+rng.Intn(bits))) }
	for i := range cs {
		// Any unit is a valid base; r^N·(1+mN) is what encryption makes.
		c, err := pk.Encrypt(rng, big.NewInt(rng.Int63()))
		if err != nil {
			panic(err)
		}
		cs[i] = c
		e := SignedExp{Mag: new(big.Int).Rand(rng, width()), Neg: rng.Intn(2) == 0}
		switch pattern {
		case patAllNeg:
			e.Neg = true
		case patAllZero:
			e.Mag = new(big.Int)
		case patSingle:
			if i != n/2 {
				e = SignedExp{}
			}
		case patZeroDigs:
			e.Mag = new(big.Int).Lsh(one, uint(rng.Intn(bits)))
		case patLeadZero:
			if i == 0 {
				e.Mag = new(big.Int).Lsh(one, uint(bits-1))
			} else {
				e.Mag = big.NewInt(int64(rng.Intn(8)))
			}
		case patSparse:
			if rng.Intn(3) != 0 {
				e = SignedExp{}
			}
		}
		es[i] = e
	}
	return cs, es
}

// checkDotCase evaluates one case through DotTables.Dot, DotGroup and DotRow
// against the reference.
func checkDotCase(t *testing.T, pk *PublicKey, seed int64, n, w, bits, pattern int) {
	t.Helper()
	cs, es := dotCase(pk, seed, n, bits, pattern)
	want := dotReference(pk, cs, es)
	tabs := pk.PrecomputeDot(cs, uint(w))
	if got := tabs.Dot(es).C; got.Cmp(want) != 0 {
		t.Fatalf("Dot(seed %d n %d w %d bits %d pattern %d) is not the reference residue", seed, n, w, bits, pattern)
	}
	if got := pk.DotRow(cs, es).C; got.Cmp(want) != 0 {
		t.Fatalf("DotRow(seed %d n %d bits %d pattern %d) is not the reference residue", seed, n, bits, pattern)
	}
	if n%2 == 0 { // two base vectors laid end to end
		h := n / 2
		for g := 0; g < 2; g++ {
			wantG := dotReference(pk, cs[g*h:(g+1)*h], es[g*h:(g+1)*h])
			if got := tabs.DotGroup(g, es[g*h:(g+1)*h]).C; got.Cmp(wantG) != 0 {
				t.Fatalf("DotGroup %d (seed %d n %d w %d bits %d pattern %d) is not the reference residue", g, seed, n, w, bits, pattern)
			}
		}
	}
	if want, got := pk.DotTableBytes(n, uint(w)), tabs.Bytes(); got != want {
		t.Fatalf("tables account %d bytes, DotTableBytes says %d", got, want)
	}
}

// dotSeedCases are the hand-picked corners: every pattern at every window
// width, exponent widths from one bit to past serve's lane-packed ~2000.
func dotSeedCases() [][5]int { // seed, n, w, bits, pattern
	var cases [][5]int
	bits := []int{1, 2, 7, 45, 64, 65, 130, 2100}
	for w := 1; w <= MaxDotWindow; w++ {
		for p := 0; p < numPatterns; p++ {
			cases = append(cases, [5]int{int(w*100 + p), 1 + (w+p)%7, w, bits[(w+p)%len(bits)], p})
		}
	}
	return cases
}

func TestDotDifferential(t *testing.T) {
	for _, c := range dotSeedCases() {
		checkDotCase(t, &testKey.PublicKey, int64(c[0]), c[1], c[2], c[3], c[4])
	}
	rng := mrand.New(mrand.NewSource(41))
	trials := 60
	if testing.Short() {
		trials = 20
	}
	for i := 0; i < trials; i++ {
		checkDotCase(t, &testKey.PublicKey, rng.Int63(), 1+rng.Intn(10), 1+rng.Intn(MaxDotWindow), 1+rng.Intn(2100), rng.Intn(numPatterns))
	}
}

// FuzzDotSigned drives the same check from fuzzed case descriptions, seeded
// with the differential suite's corners.
func FuzzDotSigned(f *testing.F) {
	for _, c := range dotSeedCases() {
		f.Add(int64(c[0]), uint8(c[1]), uint8(c[2]), uint16(c[3]), uint8(c[4]))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, w uint8, bits uint16, pattern uint8) {
		checkDotCase(t, &testKey.PublicKey, seed, 1+int(n)%10, 1+int(w)%MaxDotWindow, 1+int(bits)%2100, int(pattern)%numPatterns)
	})
}

// TestPrecomputeDotRejectsNonUnit: a base sharing a factor with N cannot be
// inverted; the table build must fail loudly, and so must a DotRow that needs that base's inverse.
func TestPrecomputeDotRejectsNonUnit(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	good := encT(t, pk, big.NewInt(7))
	bad := &Ciphertext{C: new(big.Int).Set(k.p)}
	wantPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "corrupted ciphertext") {
				t.Fatalf("%s: want the corrupted-ciphertext panic, got %v", name, r)
			}
		}()
		fn()
	}
	wantPanic("PrecomputeDot", func() { pk.PrecomputeDot([]*Ciphertext{good, bad, good}, 4) })
	wantPanic("DotRow", func() {
		pk.DotRow([]*Ciphertext{good, bad}, []SignedExp{{Mag: big.NewInt(3)}, {Mag: big.NewInt(5), Neg: true}})
	})
}

// fakeKey2048 is a 2048-bit odd modulus of unknown factorization: the dot
// kernel needs only N² and unit bases, and generating a real key this size
// would dominate the test.
func fakeKey2048(rng *mrand.Rand) *PublicKey {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, 2047))
	n.SetBit(n, 2047, 1).SetBit(n, 0, 1)
	return &PublicKey{N: n, N2: new(big.Int).Mul(n, n)}
}

func fakeUnits(rng *mrand.Rand, pk *PublicKey, n int) []*Ciphertext {
	cs := make([]*Ciphertext, n)
	for i := range cs {
		for {
			c := new(big.Int).Rand(rng, pk.N2)
			if new(big.Int).GCD(nil, nil, c, pk.N).Cmp(one) == 0 {
				cs[i] = &Ciphertext{C: c}
				break
			}
		}
	}
	return cs
}

// TestDotAllocsConstant is the allocation guard: one evaluation at 2048 bits
// allocates its accumulator and its scratch, a small constant, whether the
// exponents are 45-bit fixed-point scalars or serve's ~2000-bit lane packs —
// not a fresh 128-limb product per multiplication as the aliased
// big.Int.Mul/Mod chain did. `make test-cpu` runs it without -race.
func TestDotAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool (math/big's divisor scratch) drops items at random under -race")
	}
	rng := mrand.New(mrand.NewSource(43))
	pk := fakeKey2048(rng)
	const n = 14
	tabs := pk.PrecomputeDot(fakeUnits(rng, pk, n), 4)
	const bound = 8
	for _, bits := range []int{45, 2000} {
		es := make([]SignedExp, n)
		for i := range es {
			es[i] = SignedExp{Mag: new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits))), Neg: i%2 == 0}
		}
		tabs.Dot(es) // warm math/big's scratch pool
		if got := testing.AllocsPerRun(10, func() { tabs.Dot(es) }); got > bound {
			t.Errorf("%d-bit exponents: %.0f allocations per Dot, want at most %d", bits, got, bound)
		} else {
			t.Logf("%d-bit exponents: %.0f allocations per Dot", bits, got)
		}
	}
}
