package model

import (
	"bytes"
	"errors"
	"testing"

	"blindfl/internal/data"
	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// trainCheckpointed trains a serveable model on a fresh pipe and returns the
// dataset, history and serve checkpoint.
func trainCheckpointed(t *testing.T, kind Kind, h Hyper, seed int64) (*data.Dataset, *History, []byte) {
	t.Helper()
	ds := data.Generate(tinySpec("t-pred", 12, 12, 2, false), 11)
	pa, pb := fedPipe(t, seed)
	var buf bytes.Buffer
	hist, err := Trainer{Kind: kind, Hyper: h, Checkpoint: &buf}.Train(ds, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	return ds, hist, buf.Bytes()
}

// restorePredictor loads a checkpoint onto a fresh two-party pipe.
func restorePredictor(t *testing.T, ck []byte, seed int64) *Predictor {
	t.Helper()
	skA, skB := protocol.TestKeys()
	pa, pb, err := protocol.Pipe(skA, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(bytes.NewReader(ck), Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func assertSameBits(t *testing.T, got, want *tensor.Dense, what string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: logits[%d] = %v, want exactly %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestPredictorBitIdentity: a Predictor restored from a checkpoint must
// reproduce the training-time test logits bit for bit — with the engine on
// and off — and agree exactly with the plaintext integer reference.
func TestPredictorBitIdentity(t *testing.T) {
	h := tinyHyper()
	h.Epochs = 2
	ds, hist, ck := trainCheckpointed(t, LR, h, 600)
	p := restorePredictor(t, ck, 601)

	xA, xB := ds.TestA.Dense, ds.TestB.Dense
	got, err := p.PredictBatch([]*tensor.Dense{xA}, xB)
	if err != nil {
		t.Fatal(err)
	}
	// One whole-test-set batch vs evalB's h.Batch-sized batches: the serve
	// path is exact per request row, so batching must not change a bit.
	assertSameBits(t, got, hist.TestLogits, "served logits vs training-time eval")

	plain, err := p.PlainLogits([]*tensor.Dense{xA}, xB)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, plain, hist.TestLogits, "plaintext reference")

	// Engine off (textbook multiplies): still the same bits.
	prev := hetensor.SetTextbook(true)
	defer hetensor.SetTextbook(prev)
	got2, err := p.PredictBatch([]*tensor.Dense{xA}, xB)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, got2, hist.TestLogits, "served logits under textbook engine")
}

// TestPredictorBitIdentityMulti is the k-party version: checkpoint a 3-party
// run, restore onto fresh sessions, compare to the training-time logits.
func TestPredictorBitIdentityMulti(t *testing.T) {
	const k = 3
	h := tinyHyper()
	h.Epochs = 2
	ds := data.Generate(tinySpec("t-predk", 13, 13, 2, false), 12)

	skA, skB := protocol.TestKeys()
	skAs := make([]*paillier.PrivateKey, k)
	for i := range skAs {
		skAs[i] = skA
	}
	as, g, err := protocol.GroupPipe(skAs, skB, 610)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hist, err := Trainer{Kind: LR, Hyper: h, Checkpoint: &buf}.Train(ds, PartySet{As: as, B: g})
	if err != nil {
		t.Fatal(err)
	}

	as2, g2, err := protocol.GroupPipe(skAs, skB, 611)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(bytes.NewReader(buf.Bytes()), PartySet{As: as2, B: g2})
	if err != nil {
		t.Fatal(err)
	}
	testAs := data.SplitCols(ds.TestA, k)
	xAs := make([]*tensor.Dense, k)
	for i, part := range testAs {
		xAs[i] = part.Dense
	}
	got, err := p.PredictBatch(xAs, ds.TestB.Dense)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, got, hist.TestLogits, "k-party served logits")
}

// hostileHeads re-seals a sound MLP checkpoint with head widths it does not
// carry the parameters for: a negative hidden width, and a class count far
// past the saved head. Both would panic or allocate without bound if a head
// were built before its widths were vetted.
func hostileHeads(t testing.TB) map[string][]byte {
	t.Helper()
	h := tinyHyper()
	h.Epochs, h.Hidden = 1, []int{4}
	var sound bytes.Buffer
	as, g := fedGroup(t, 1, 640)
	if _, err := (Trainer{Kind: MLP, Hyper: h, Checkpoint: &sound}).Train(data.Generate(tinySpec("t-pred", 12, 12, 2, false), 11), PartySet{As: as, B: g}); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for name, lie := range map[string]func(*runCheckpoint){
		"hidden -1":    func(ck *runCheckpoint) { ck.Hyper.Hidden = []int{-1} },
		"classes 2^40": func(ck *runCheckpoint) { ck.Classes = 1 << 40 },
		"hidden 2^40":  func(ck *runCheckpoint) { ck.Hyper.Hidden = []int{1 << 40} },
	} {
		ck, err := readCheckpoint(bytes.NewReader(sound.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		lie(ck)
		var buf bytes.Buffer
		if err := writeCheckpoint(&buf, ck); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestPredictorRefusesHostileHeadWidths: the serve path takes the family,
// class count and hidden widths from the checkpoint itself, so NewPredictor
// must vet them against the saved head before building one — a typed
// ErrBadCheckpoint, never a panic or an unbounded allocation.
func TestPredictorRefusesHostileHeadWidths(t *testing.T) {
	for name, ck := range hostileHeads(t) {
		as, g := fedGroup(t, 1, 641)
		if _, err := NewPredictor(bytes.NewReader(ck), PartySet{As: as, B: g}); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s: NewPredictor err = %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// TestCheckpointRejectsNonServeable: a sparse or an embedding model
// checkpoints like any other, but has no serve path, so NewPredictor refuses
// its checkpoint with the typed ErrNotServeable before any session is
// touched.
func TestCheckpointRejectsNonServeable(t *testing.T) {
	h := tinyHyper()
	h.Epochs = 1
	for _, tc := range []struct {
		kind Kind
		ds   *data.Dataset
	}{
		{LR, data.Generate(tinySpec("t-predsp", 40, 5, 2, false), 13)},
		{WDL, data.Generate(catSpec("t-predwdl", 8, 8), 14)},
	} {
		var buf bytes.Buffer
		if _, err := (Trainer{Kind: tc.kind, Hyper: h, Checkpoint: &buf}).Train(tc.ds, Pair(fedPipe(t, 620))); err != nil {
			t.Fatalf("%s over %s: %v", tc.kind, tc.ds.Spec.Name, err)
		}
		if _, err := NewPredictor(&buf, PartySet{}); !errors.Is(err, ErrNotServeable) {
			t.Fatalf("%s over %s: NewPredictor err = %v, want ErrNotServeable", tc.kind, tc.ds.Spec.Name, err)
		}
	}
}
