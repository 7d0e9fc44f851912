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
// the two files a run writes, both of the one format — the final epoch's
// (Trainer.Checkpoint) and a mid-run one (CheckpointDir). The property is
// FuzzRecvMatrix's: a value or a typed error — the bytes are bad
// (ErrBadCheckpoint) or sound but some other run's (errCkMismatch) — never a
// panic, never a hang, and allocation bounded by the input's length.
func FuzzCheckpoint(f *testing.F) {
	ds := data.Generate(tinySpec("t-fuzz-ck", 12, 12, 2, false), 3)
	h := tinyHyper()
	var final bytes.Buffer
	tr := Trainer{Kind: LR, Hyper: h, Checkpoint: &final, CheckpointDir: f.TempDir()}
	as, g := fedGroup(f, 1, 690)
	if _, err := tr.Train(ds, PartySet{As: as, B: g}); err != nil {
		f.Fatal(err)
	}
	// Both seeds resume under a raised epoch count, the final one included.
	tr.Checkpoint = nil
	tr.Hyper.Epochs++
	unsealed := func(sealed []byte) []byte {
		payload, err := openEnvelope(bytes.NewReader(sealed))
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	runFile, err := os.ReadFile(filepath.Join(tr.CheckpointDir, "ckpt-00001"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(unsealed(final.Bytes()))
	f.Add(unsealed(runFile))
	f.Add(final.Bytes()[:16])
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
			if err != nil && !errors.Is(err, ErrBadCheckpoint) && !errors.Is(err, errCkMismatch) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
			return err == nil
		}
		check("decoder, raw stream", func() error {
			_, err := readCheckpoint(bytes.NewReader(in))
			return err
		})
		as, g := fedGroup(t, 1, 691)
		if check("NewPredictor, sealed", func() error {
			_, err := NewPredictor(bytes.NewReader(sealed.Bytes()), PartySet{As: as, B: g})
			return err
		}) {
			// The serve-session exchange ran on these sessions: restore the
			// checkpoint for training onto fresh ones, as a deployment would.
			as, g = fedGroup(t, 1, 691)
		}
		check("resume scan and restore", func() error {
			ck, err := latestRunCheckpoint(scratch)
			if err != nil {
				return err
			}
			pl, err := tr.plan(ds, 1, ck, false)
			if err != nil {
				return err
			}
			_, err = tr.restore(pl, as, &groupSide{g: g})
			return err
		})
	})
}
