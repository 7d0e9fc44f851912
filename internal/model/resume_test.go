package model

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/protocol"
	"blindfl/internal/transport"
)

// Crash-recovery suite: a training run killed mid-flight must leave a durable
// checkpoint behind, and resuming it on fresh sessions must reproduce the
// uninterrupted run bit for bit — losses, test metric and test logits. A
// corrupted checkpoint file must either be skipped for an older usable one
// (still bit-exact) or fail with the typed ErrBadCheckpoint, never restore
// into garbage.

// ckptFiles lists the published run-checkpoint files in dir, oldest first.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ckpt-") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	return names
}

// corruptFile flips one payload byte of a sealed checkpoint file in place.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLatestCheckpointOrdersByEpoch: the resume scan picks the file of the
// highest epoch, parsed from its name — not the lexically greatest name,
// which past epoch 99 999 (ckpt-99999 against ckpt-100000) is an older one —
// and looks at no file whose name is not ckpt-<epoch>.
func TestLatestCheckpointOrdersByEpoch(t *testing.T) {
	for name, tc := range map[string]struct {
		epochs []int
		want   int
	}{
		"one file":           {[]int{3}, 3},
		"padded":             {[]int{1, 2, 10, 9}, 10},
		"past five digits":   {[]int{99999, 100000}, 100000},
		"six and five mixed": {[]int{100001, 2, 99998, 100000}, 100001},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, e := range tc.epochs {
				var buf bytes.Buffer
				ck := &runCheckpoint{Kind: LR, Classes: 2, InAs: []int{1}, LayerA: [][]byte{{0}}, LayerB: [][]byte{{0}}, Epoch: e}
				if err := writeCheckpoint(&buf, ck); err != nil {
					t.Fatal(err)
				}
				if err := WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("ckpt-%05d", e)), buf.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			for _, stray := range []string{"ckpt-latest", "ckpt-", "ckpt--1", ".ckpt-99999999-1.tmp"} {
				if err := os.WriteFile(filepath.Join(dir, stray), []byte("not a checkpoint"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			ck, err := latestRunCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Epoch != tc.want {
				t.Fatalf("scan over epochs %v picked epoch %d, want %d", tc.epochs, ck.Epoch, tc.want)
			}
		})
	}
}

// TestWriteFileAtomic: the publish step replaces a file whole and leaves no
// temp file behind; a write that cannot happen leaves nothing at all.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ck")
	for _, content := range []string{"first, longer version", "second"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("read back %q, %v; want %q", got, err, content)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two publishes, want 1", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "model.ck"), []byte("x")); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
}

// assertBitExact compares a resumed history against the clean reference.
func assertBitExact(t *testing.T, hist, clean *History) {
	t.Helper()
	if len(hist.Losses) != len(clean.Losses) {
		t.Fatalf("iteration counts differ: %d vs %d", len(hist.Losses), len(clean.Losses))
	}
	for i := range hist.Losses {
		if hist.Losses[i] != clean.Losses[i] {
			t.Fatalf("loss %d diverges after resume: %v vs clean %v", i, hist.Losses[i], clean.Losses[i])
		}
	}
	if hist.TestMetric != clean.TestMetric {
		t.Fatalf("test metric diverges after resume: %v vs clean %v", hist.TestMetric, clean.TestMetric)
	}
	if hist.TestLogits == nil || clean.TestLogits == nil {
		t.Fatal("missing test logits")
	}
	if len(hist.TestLogits.Data) != len(clean.TestLogits.Data) {
		t.Fatalf("test logit counts differ: %d vs %d", len(hist.TestLogits.Data), len(clean.TestLogits.Data))
	}
	for i := range hist.TestLogits.Data {
		if hist.TestLogits.Data[i] != clean.TestLogits.Data[i] {
			t.Fatalf("test logit %d diverges after resume: %v vs clean %v",
				i, hist.TestLogits.Data[i], clean.TestLogits.Data[i])
		}
	}
}

// TestChaosResumeFallbackLadder pins what a resume does with rotted files.
// (That a killed run resumes bit-exactly at all — at k = 1 and k = 3, on any
// shard topology — is TestChaosOneBodyMatrix's.) A 3-epoch run leaves the
// epoch-1 and epoch-2 checkpoints: the newest resumes bit-exactly; with the
// newest rotted the scan falls back to the older one, still bit-exact; and a
// directory with no usable file fails with the typed ErrBadCheckpoint, never
// a restore into garbage.
func TestChaosResumeFallbackLadder(t *testing.T) {
	const seed = 640
	ds := data.Generate(tinySpec("t-chaos-resume", 12, 12, 2, false), 3)
	h := chaosHyper()
	h.Epochs = 3
	tr := Trainer{Kind: LR, Hyper: h, CheckpointDir: t.TempDir()}
	pa, pb := fedPipe(t, seed)
	clean, err := tr.Train(ds, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	files := ckptFiles(t, tr.CheckpointDir)
	if len(files) != 2 {
		t.Fatalf("clean 3-epoch run left %d checkpoints, want 2 (after epochs 1 and 2)", len(files))
	}
	resume := func() (*History, error) {
		pa, pb := fedPipe(t, seed)
		return tr.Resume(ds, Pair(pa, pb))
	}
	hist, err := resume()
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	assertBitExact(t, hist, clean)

	corruptFile(t, files[1])
	if hist, err = resume(); err != nil {
		t.Fatalf("resume failed to fall back past a corrupted newest checkpoint: %v", err)
	}
	assertBitExact(t, hist, clean)

	// Re-list before rotting everything: the fallback resume deposited a
	// fresh epoch-2 checkpoint of its own.
	for _, f := range ckptFiles(t, tr.CheckpointDir) {
		corruptFile(t, f)
	}
	if _, err = resume(); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("resume over all-corrupt checkpoints = %v, want ErrBadCheckpoint", err)
	}
}

// tcpSession opens session 0 by hand, the way two processes would: Party B
// listens, Party A dials, and each end builds its own peer with NewPeer at
// the session's stream coordinates.
func tcpSession(t *testing.T, seed int64) (*protocol.Peer, *protocol.Peer) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	type accepted struct {
		c   transport.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := transport.Listen(addr)
		acc <- accepted{c, err}
	}()
	var ca transport.Conn
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ca, err = transport.Dial(addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
	}
	b := <-acc
	if b.err != nil {
		t.Fatal(b.err)
	}
	skA, skB := protocol.TestKeys()
	pa := protocol.NewPeer(protocol.PartyA, ca, skA, seed, 0, 0)
	pb := protocol.NewPeer(protocol.PartyB, b.c, skB, seed, 0, 0)
	if err := protocol.HandshakeAll(pa, pb); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pa.Conn.Close()
		pb.Conn.Close()
	})
	return pa, pb
}

// TestResumeHandAssembledSession: a session opened by hand over TCP, NewPeer
// on both ends, trains with checkpoints and resumes bit-exactly against the
// uninterrupted run. Every peer is born with its stream coordinates, so a
// hand-built session needs nothing a pipe's does not have — and it is the very
// session Pipe opens at the same seed.
func TestResumeHandAssembledSession(t *testing.T) {
	const seed = 642
	ds := data.Generate(tinySpec("t-resume-tcp", 12, 12, 2, false), 3)
	h := chaosHyper()
	h.Epochs = 2
	tr := Trainer{Kind: LR, Hyper: h, CheckpointDir: t.TempDir()}
	clean, err := tr.Train(ds, Pair(tcpSession(t, seed)))
	if err != nil {
		t.Fatal(err)
	}
	if files := ckptFiles(t, tr.CheckpointDir); len(files) != 1 {
		t.Fatalf("2-epoch run left %d checkpoints, want 1", len(files))
	}
	hist, err := tr.Resume(ds, Pair(tcpSession(t, seed)))
	if err != nil {
		t.Fatalf("resume of a hand-assembled session failed: %v", err)
	}
	assertBitExact(t, hist, clean)
	piped, err := Trainer{Kind: LR, Hyper: h}.Train(ds, Pair(fedPipe(t, seed)))
	if err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, piped, clean)
}

// TestChaosResumeRefusesChangedConfig: a resume whose trainer or data
// disagrees with the checkpointed run — different engine options
// (fingerprint), different hyper-parameters, no epochs left to train, or
// data of another source layout (sparse where the checkpoint was dense at
// the same widths; another vocabulary under an embedding family) — must be
// refused up front with errCkMismatch: it could not be bit-exact, so it must
// not start.
func TestChaosResumeRefusesChangedConfig(t *testing.T) {
	const seed = 641
	ds := data.Generate(tinySpec("t-chaos-refuse", 12, 12, 2, false), 3)
	cat := catSpec("t-chaos-refuse-wdl", 12, 12)
	wdl := data.Generate(cat, 5)
	cat.CatVocab *= 2
	wdlVocab := data.Generate(cat, 5)
	h := chaosHyper()
	h.Epochs = 2

	dir, wdlDir := t.TempDir(), t.TempDir()
	for _, run := range []struct {
		tr Trainer
		ds *data.Dataset
	}{
		{Trainer{Kind: LR, Hyper: h, CheckpointDir: dir}, ds},
		{Trainer{Kind: WDL, Hyper: h, CheckpointDir: wdlDir}, wdl},
	} {
		if _, err := run.tr.Train(run.ds, Pair(fedPipe(t, seed))); err != nil {
			t.Fatal(err)
		}
		if files := ckptFiles(t, run.tr.CheckpointDir); len(files) != 1 {
			t.Fatalf("2-epoch %s run left %d checkpoints, want 1", run.tr.Kind, len(files))
		}
	}

	hEng, hLR, hDone := h, h, h
	hEng.SpotCheck = !hEng.SpotCheck
	hLR.LR *= 2
	hDone.Epochs = 1 // the checkpoint already covers epoch 1
	for _, row := range []struct {
		name string
		tr   Trainer
		ds   *data.Dataset
		want string
	}{
		{"engine options", Trainer{Kind: LR, Hyper: hEng, CheckpointDir: dir}, ds, "engine options"},
		{"learning rate", Trainer{Kind: LR, Hyper: hLR, CheckpointDir: dir}, ds, "hyper-parameters"},
		{"past the final epoch", Trainer{Kind: LR, Hyper: hDone, CheckpointDir: dir}, ds, "nothing to resume"},
		{"dense checkpoint on sparse data", Trainer{Kind: LR, Hyper: h, CheckpointDir: dir},
			data.Generate(tinySpec("t-chaos-refuse", 12, 6, 2, false), 3), "source layers"},
		{"embedding checkpoint over another vocabulary", Trainer{Kind: WDL, Hyper: h, CheckpointDir: wdlDir}, wdlVocab, "source layers"},
	} {
		pa, pb := fedPipe(t, seed)
		_, err := row.tr.Resume(row.ds, Pair(pa, pb))
		pa.Conn.Close()
		pb.Conn.Close()
		if !errors.Is(err, errCkMismatch) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("resume under a changed %s = %v, want errCkMismatch (%s)", row.name, err, row.want)
		}
	}

	// Raising the epoch count is the one legal change: train further.
	hMore := h
	hMore.Epochs = 3
	pa, pb := fedPipe(t, seed)
	hist, err := Trainer{Kind: LR, Hyper: hMore, CheckpointDir: dir}.Resume(ds, Pair(pa, pb))
	if err != nil {
		t.Fatalf("resume with a raised epoch count failed: %v", err)
	}
	if want := 3 * (ds.TrainA.Rows() / h.Batch); len(hist.Losses) != want {
		t.Fatalf("extended resume ran %d iterations, want %d", len(hist.Losses), want)
	}
}

// TestChaosCtrlCorruptTrainingFailsTyped drives a control-plane bit-flip
// through end-to-end training: whichever control envelope the schedule hits
// (stream header, end marker or ack), the run must abort with the typed
// integrity error — never hang, never return a model trained over a corrupt
// frame. The seed is chosen so the flip lands mid-run, past the handshake.
func TestChaosCtrlCorruptTrainingFailsTyped(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-ctrl", 12, 12, 2, false), 3)
	pa, pb, fc := fedPipeFault(t, 653, "chaos-ctrl-flip", transport.FaultPlan{CtrlFlipProb: 0.3, MaxFaults: 1})
	done := make(chan error, 1)
	go func() {
		_, err := trainOn(LR, ds, chaosHyper(), Pair(pa, pb))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("training completed over a corrupted control message")
		}
		if !errors.Is(err, transport.ErrCorrupt) {
			t.Fatalf("err = %v, want transport.ErrCorrupt", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("training hung on a corrupted control message")
	}
	if fc.Injected().CtrlFlips != 1 {
		t.Fatalf("injected = %+v, want exactly one control flip", fc.Injected())
	}
}

// TestChaosBadServeCheckpointFailsTyped is the envelope regression test: a
// serve checkpoint that was bit-flipped, truncated or replaced with garbage
// must fail Predictor restore with the typed (and permanent)
// ErrBadCheckpoint — the error RetryPredictor refuses to retry — instead of
// gob-decoding noise into a servable model.
func TestChaosBadServeCheckpointFailsTyped(t *testing.T) {
	ds := data.Generate(tinySpec("t-chaos-badck", 12, 12, 2, false), 3)
	h := chaosHyper()
	pa, pb := fedPipe(t, 660)
	var buf bytes.Buffer
	if _, err := (Trainer{Kind: LR, Hyper: h, Checkpoint: &buf}).Train(ds, Pair(pa, pb)); err != nil {
		t.Fatal(err)
	}
	ck := buf.Bytes()
	if _, err := openEnvelope(bytes.NewReader(ck)); err != nil {
		t.Fatalf("pristine checkpoint failed its own envelope: %v", err)
	}

	flipped := append([]byte(nil), ck...)
	flipped[len(flipped)-5] ^= 0x01
	cases := map[string][]byte{
		"bitflip":   flipped,
		"truncated": ck[:len(ck)-7],
		"header":    ck[:16],
		"garbage":   []byte("not a checkpoint"),
		"empty":     nil,
	}
	for name, blob := range cases {
		t.Run(name, func(t *testing.T) {
			// The envelope is rejected before any session is touched, so no
			// live party set is needed.
			_, err := NewPredictor(bytes.NewReader(blob), PartySet{})
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("err = %v, want ErrBadCheckpoint", err)
			}
		})
	}
}
