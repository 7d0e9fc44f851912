package model

import (
	"strings"
	"testing"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
)

// fedGroup builds a k-session group sharing the two test keys.
func fedGroup(t testing.TB, k int, seed int64) ([]*protocol.Peer, *protocol.Group) {
	t.Helper()
	skA, skB := protocol.TestKeys()
	skAs := make([]*paillier.PrivateKey, k)
	for i := range skAs {
		skAs[i] = skA
	}
	as, g, err := protocol.GroupPipe(skAs, skB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return as, g
}

// requireBitIdentical asserts two training histories agree bit for bit:
// every per-iteration loss, the test metric, and every test logit.
func requireBitIdentical(t *testing.T, name string, multi, two *History) {
	t.Helper()
	if len(multi.Losses) != len(two.Losses) {
		t.Fatalf("%s: %d losses vs %d", name, len(multi.Losses), len(two.Losses))
	}
	for i := range multi.Losses {
		if multi.Losses[i] != two.Losses[i] {
			t.Fatalf("%s: loss %d differs: %v vs %v", name, i, multi.Losses[i], two.Losses[i])
		}
	}
	if multi.TestMetric != two.TestMetric {
		t.Fatalf("%s: test metric differs: %v vs %v", name, multi.TestMetric, two.TestMetric)
	}
	if !multi.TestLogits.Equal(two.TestLogits, 0) {
		t.Fatalf("%s: test logits differ bitwise", name)
	}
}

// TestMultiK3LosslessAgainstTwoParty checks Algorithm 3's lossless property
// at k=3 on an unevenly split dense dataset (8 columns across 3 parties:
// 3+3+2): the k-party run must match the two-party run on the
// column-concatenated dataset to the paper's statistical criterion — the
// per-session weight pieces are fresh random draws, so the trajectories
// agree in distribution, not bit for bit — and must genuinely learn.
func TestMultiK3LosslessAgainstTwoParty(t *testing.T) {
	ds := data.Generate(tinySpec("t-mk3", 16, 16, 2, false), 32)
	h := tinyHyper()
	h.Epochs = 6
	pa, pb := fedPipe(t, 522)
	two, err := trainOn(LR, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	as, g := fedGroup(t, 3, 522)
	multi, err := trainOn(LR, ds, h, PartySet{As: as, B: g})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Losses) != len(two.Losses) {
		t.Fatalf("iteration counts differ: %d vs %d", len(multi.Losses), len(two.Losses))
	}
	if multi.TestMetric < two.TestMetric-0.05 {
		t.Fatalf("k=3 AUC %v vs two-party %v: lossless property violated", multi.TestMetric, two.TestMetric)
	}
	if multi.TestMetric < 0.65 {
		t.Fatalf("k=3 AUC %v: did not learn", multi.TestMetric)
	}
}

// TestMultiK3SparseLR runs the k-party group over the sparse source layer.
func TestMultiK3SparseLR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-party sparse training skipped in -short")
	}
	ds := data.Generate(tinySpec("t-mk3sp", 60, 6, 2, false), 33)
	h := tinyHyper()
	h.Epochs = 6
	as, g := fedGroup(t, 3, 523)
	multi, err := trainOn(LR, ds, h, PartySet{As: as, B: g})
	if err != nil {
		t.Fatal(err)
	}
	if multi.TestMetric < 0.6 {
		t.Fatalf("k=3 sparse AUC = %v", multi.TestMetric)
	}
}

// TestMultiK3MLP exercises a deeper top model across the group.
func TestMultiK3MLP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-party MLP training skipped in -short")
	}
	ds := data.Generate(tinySpec("t-mk3mlp", 16, 16, 2, false), 34)
	h := tinyHyper()
	h.Epochs = 4
	as, g := fedGroup(t, 3, 524)
	multi, err := trainOn(MLP, ds, h, PartySet{As: as, B: g})
	if err != nil {
		t.Fatal(err)
	}
	if multi.TestMetric < 0.6 {
		t.Fatalf("k=3 MLP AUC = %v", multi.TestMetric)
	}
}

// TestMultiRejectsEmbeddingFamilies: WDL and DLRM train at k = 1
// (TestFederatedWDL, TestFederatedDLRM, the recorded wdl/k1 trajectory) and
// are refused at k = 3 before any session is touched — the one guard where
// the k-party body used to reject them.
func TestMultiRejectsEmbeddingFamilies(t *testing.T) {
	ds := data.Generate(tinySpec("t-mwdl", 40, 5, 2, true), 35)
	for _, kind := range []Kind{WDL, DLRM} {
		as, g := fedGroup(t, 3, 525)
		if _, err := trainOn(kind, ds, tinyHyper(), PartySet{As: as, B: g}); err == nil || !strings.Contains(err.Error(), "Embed-MatMul") {
			t.Fatalf("%s at k=3: err = %v, want an embedding-family rejection", kind, err)
		}
		if msgs, _ := as[0].Conn.Stats(); msgs != 1 {
			t.Fatalf("%s at k=3: %d messages crossed session 0, want the handshake's one", kind, msgs)
		}
	}
}

func TestMultiRejectsTooManyParties(t *testing.T) {
	// TrainA holds 3 of the 6 columns; ask for 4 parties.
	ds := data.Generate(tinySpec("t-mwide", 6, 6, 2, false), 36)
	as, g := fedGroup(t, 4, 526)
	if _, err := trainOn(LR, ds, tinyHyper(), PartySet{As: as, B: g}); err == nil || !strings.Contains(err.Error(), "cannot split") {
		t.Fatalf("err = %v, want a split rejection", err)
	}
}

// TestMultiFailingSessionSurfacesError injects a dead feature party into a
// k=3 group mid-setup: Train must return the transport error
// (unblocking the other sessions) instead of hanging — the model-level form
// of the RunGroup teardown regression test.
func TestMultiFailingSessionSurfacesError(t *testing.T) {
	ds := data.Generate(tinySpec("t-mfail", 16, 16, 2, false), 37)
	h := tinyHyper()
	h.Epochs = 1
	as, g := fedGroup(t, 3, 528)
	as[1].Conn.Close() // feature party 1 is gone before training starts
	done := make(chan error, 1)
	go func() {
		_, err := trainOn(LR, ds, h, PartySet{As: as, B: g})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the dead session")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Train hung on a dead session")
	}
}
