package core

import (
	"math/rand"
	"testing"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// serveReference computes the serve activation in the same exact integer
// domain as the protocol: Zᵀ = Σ pieces of (X·(U+V))ᵀ summed in ℤ at scale 2,
// decoded once. The protocol result must match it bit for bit.
func serveReference(xA, xB *tensor.Dense, la *MatMulA, lb *MatMulB) *tensor.Dense {
	z := hetensor.IntMatMulT(xA, la.UA)
	z.AddInPlace(hetensor.IntMatMulT(xA, lb.VA))
	z.AddInPlace(hetensor.IntMatMulT(xB, lb.UB))
	z.AddInPlace(hetensor.IntMatMulT(xB, la.VB))
	return z.DecodeTranspose()
}

func TestServeForwardExact(t *testing.T) {
	skA, skB := protocol.TestKeys()
	pa, pb, err := protocol.Pipe(skA, skB, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Out: 3, LR: 0.05}
	var la *MatMulA
	var lb *MatMulB
	if err := protocol.RunParties(pa, pb,
		func() { la = NewMatMulA(pa, cfg, 5, 4) },
		func() { lb = NewMatMulB(pb, cfg, 5, 4) },
	); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	lanes := hetensor.Lanes(&skB.PublicKey)
	batch := lanes + 2 // force a ragged second lane group
	xA := tensor.RandDense(rng, batch, 5, 1)
	xB := tensor.RandDense(rng, batch, 4, 1)
	want := serveReference(xA, xB, la, lb)

	serve := func() *tensor.Dense {
		var z *tensor.Dense
		if err := protocol.RunParties(pa, pb,
			func() { la.ServeForward(xA) },
			func() { z = lb.ServeForward(xB) },
		); err != nil {
			t.Fatal(err)
		}
		return z
	}

	if err := protocol.RunParties(pa, pb,
		func() { la.ServeStart() },
		func() { lb.ServeStart() },
	); err != nil {
		t.Fatal(err)
	}
	z := serve()
	if z.Rows != batch || z.Cols != 3 {
		t.Fatalf("serve activation %d×%d, want %d×3", z.Rows, z.Cols, batch)
	}
	for i, v := range z.Data {
		if v != want.Data[i] {
			t.Fatalf("serve activation[%d] = %v, want exactly %v", i, v, want.Data[i])
		}
	}

	// Fresh masks each call must cancel exactly: a second run is bit-identical.
	z2 := serve()
	for i := range z.Data {
		if z.Data[i] != z2.Data[i] {
			t.Fatalf("serve activation not deterministic at %d: %v vs %v", i, z.Data[i], z2.Data[i])
		}
	}

	// The packed-exponent serve kernel is engine-independent: the Textbook
	// toggle switches the training matmuls but must not change serve results.
	prev := hetensor.SetTextbook(true)
	defer hetensor.SetTextbook(prev)
	z3 := serve()
	for i := range z.Data {
		if z.Data[i] != z3.Data[i] {
			t.Fatalf("serve activation differs under textbook toggle at %d", i)
		}
	}
}

func TestServeForwardMulti(t *testing.T) {
	skA, skB := protocol.TestKeys()
	const k = 3
	skAs := make([]*paillier.PrivateKey, k)
	for i := range skAs {
		skAs[i] = skA
	}
	as, g, err := protocol.GroupPipe(skAs, skB, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Out: 2, LR: 0.05}
	acfg := cfg
	acfg.GroupParties = k
	inAs := []int{3, 2, 2}
	las := make([]*MatMulA, k)
	var lb *MultiMatMulB
	if err := protocol.RunGroup(as, g,
		func(i int) { las[i] = NewMatMulA(as[i], acfg, inAs[i], 4) },
		func() { lb = NewMultiMatMulB(g, cfg, inAs, 4, false) },
	); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	batch := hetensor.Lanes(&skB.PublicKey) + 1
	xAs := make([]*tensor.Dense, k)
	for i := range xAs {
		xAs[i] = tensor.RandDense(rng, batch, inAs[i], 1)
	}
	xB := tensor.RandDense(rng, batch, 4, 1)

	// Exact integer reference summed over all sessions' pieces.
	want := hetensor.IntMatMulT(xB, lb.dense(0).UB)
	for i := 0; i < k; i++ {
		want.AddInPlace(hetensor.IntMatMulT(xAs[i], las[i].UA))
		want.AddInPlace(hetensor.IntMatMulT(xAs[i], lb.dense(i).VA))
		want.AddInPlace(hetensor.IntMatMulT(xB, las[i].VB))
		if i > 0 {
			want.AddInPlace(hetensor.IntMatMulT(xB, lb.dense(i).UB))
		}
	}
	ref := want.DecodeTranspose()

	var z *tensor.Dense
	if err := protocol.RunGroup(as, g,
		func(i int) { las[i].ServeStart(); las[i].ServeForward(xAs[i]) },
		func() { lb.ServeStart(); z = lb.ServeForward(xB) },
	); err != nil {
		t.Fatal(err)
	}
	for i := range z.Data {
		if z.Data[i] != ref.Data[i] {
			t.Fatalf("multi serve activation[%d] = %v, want exactly %v", i, z.Data[i], ref.Data[i])
		}
	}
}
