package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"blindfl/internal/data"
)

// lyingHeader is a sealed-checkpoint header declaring n payload bytes.
func lyingHeader(n uint64) []byte {
	var hdr [24]byte
	copy(hdr[:4], ckMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], ckVersion)
	binary.BigEndian.PutUint64(hdr[8:16], n)
	return hdr[:]
}

// allocatedBy returns the bytes f allocated (cumulative, not live).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEnvelopeLyingLengthAllocatesWhatArrives: a 24-byte header may claim
// any payload length up to the ceiling; the reader must spend memory on the
// bytes that actually follow it, not on the claim. (openEnvelope used to
// make([]byte, n) first: 2 GiB for this 34-byte stream.)
func TestEnvelopeLyingLengthAllocatesWhatArrives(t *testing.T) {
	blob := append(lyingHeader(maxCkPayload), make([]byte, 10)...)
	var err error
	got := allocatedBy(func() { _, err = openEnvelope(bytes.NewReader(blob)) })
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
	if got > 1<<20 {
		t.Fatalf("a %d-byte stream made openEnvelope allocate %d bytes", len(blob), got)
	}
	if _, err := openEnvelope(bytes.NewReader(lyingHeader(maxCkPayload + 1))); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("over-ceiling length: err = %v, want ErrBadCheckpoint", err)
	}
}

// FuzzCheckpoint feeds arbitrary bytes to the one checkpoint decoder
// (readCheckpoint), as a raw stream (the envelope's own checks) and sealed in
// a valid envelope (so the gob root and the vetting behind the checksum are
// reached), and through it to both restore halves: NewPredictor's over a live
// pair, and the training body's behind the resume scan. It is seeded from
// the checkpoints of every source layout: the two files a dense LR run
// writes, both of the one format — the final epoch's (Trainer.Checkpoint)
// and a mid-run one (CheckpointDir) — and the final ones of sparse LR at
// k = 1 and k = 3, WDL and DLRM — and with MLP checkpoints whose head widths
// lie (hostileHeads). A decoded checkpoint is restored for
// training under each of those runs' trainers: it plans (and restores) under
// at most the one it matches, and is refused typed by the rest. The property
// is FuzzRecvMatrix's: a value or a typed error — the bytes are bad
// (ErrBadCheckpoint), sound but some other run's (errCkMismatch), or sound
// but not serveable (ErrNotServeable) — never a panic, never a hang, and
// allocation bounded by the input's length.
func FuzzCheckpoint(f *testing.F) {
	h := tinyHyper()
	h.Epochs = 1
	sp := tinySpec("t-fuzz-sp", 60, 6, 2, false)
	sp.Train, sp.Test = 32, 16
	runs := []struct {
		tr Trainer
		ds *data.Dataset
		k  int
	}{
		{Trainer{Kind: LR, Hyper: tinyHyper(), CheckpointDir: f.TempDir()}, data.Generate(tinySpec("t-fuzz-ck", 12, 12, 2, false), 3), 1},
		{Trainer{Kind: LR, Hyper: h}, data.Generate(sp, 4), 1},
		{Trainer{Kind: LR, Hyper: h}, data.Generate(sp, 4), 3},
		{Trainer{Kind: WDL, Hyper: h}, data.Generate(catSpec("t-fuzz-wdl", 12, 12), 5), 1},
		{Trainer{Kind: DLRM, Hyper: h}, data.Generate(catSpec("t-fuzz-dlrm", 60, 6), 6), 1},
	}
	unsealed := func(sealed []byte) []byte {
		payload, err := openEnvelope(bytes.NewReader(sealed))
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	for i := range runs {
		var final bytes.Buffer
		tr := runs[i].tr
		tr.Checkpoint = &final
		as, g := fedGroup(f, runs[i].k, 690)
		if _, err := tr.Train(runs[i].ds, PartySet{As: as, B: g}); err != nil {
			f.Fatal(err)
		}
		f.Add(unsealed(final.Bytes()))
		// Every seed resumes under a raised epoch count, the final one included.
		runs[i].tr.Hyper.Epochs++
		if i == 0 {
			runFile, err := os.ReadFile(filepath.Join(tr.CheckpointDir, "ckpt-00001"))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(unsealed(runFile))
			f.Add(final.Bytes()[:16])
		}
	}
	for _, sealed := range hostileHeads(f) {
		f.Add(unsealed(sealed))
	}
	f.Add(append(lyingHeader(maxCkPayload), make([]byte, 10)...))
	f.Add(lyingHeader(maxCkPayload + 1))
	f.Add([]byte("not a checkpoint"))

	scratch := f.TempDir()
	f.Fuzz(func(t *testing.T, in []byte) {
		var sealed bytes.Buffer
		if err := sealEnvelope(&sealed, in); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(scratch, "ckpt-00001")
		if err := os.WriteFile(path, sealed.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		// Each reader stops at its first failing decoder, and encoding/gob
		// reads a message whose length prefix lies in chunks of at most 10 MiB;
		// past that constant (FuzzRecvMatrix's), what a reader allocates may
		// grow with the bytes it was given and with nothing they claim.
		check := func(what string, read func() error) bool {
			var err error
			if got, limit := allocatedBy(func() { err = read() }), uint64(16<<20+4096*len(in)); got > limit {
				t.Fatalf("%s: %d input bytes drove %d bytes of allocation (limit %d)", what, len(in), got, limit)
			}
			if err != nil && !errors.Is(err, ErrBadCheckpoint) && !errors.Is(err, errCkMismatch) && !errors.Is(err, ErrNotServeable) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
			return err == nil
		}
		check("decoder, raw stream", func() error {
			_, err := readCheckpoint(bytes.NewReader(in))
			return err
		})
		as, g := fedGroup(t, 1, 691)
		check("NewPredictor, sealed", func() error {
			_, err := NewPredictor(bytes.NewReader(sealed.Bytes()), PartySet{As: as, B: g})
			return err
		})
		ck, err := latestRunCheckpoint(scratch)
		if !check("resume scan", func() error { return err }) {
			return
		}
		for _, run := range runs {
			var pl *runPlan
			if !check("resume plan", func() (err error) {
				pl, err = run.tr.plan(run.ds, run.k, ck, false)
				return err
			}) {
				continue
			}
			// A fresh party set: the serve-session exchange may have run on
			// the first, as a deployment would restore onto new sessions.
			as, g := fedGroup(t, run.k, 692)
			check("restore", func() error {
				_, err := run.tr.restore(pl, as, &groupSide{g: g})
				return err
			})
		}
	})
}
