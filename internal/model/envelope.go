package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
)

// Checkpoint envelope: every checkpoint blindfl writes — the final one a
// Trainer hands its Checkpoint writer and the mid-run ones alike — is sealed
// in a small versioned header (magic, format version, payload length, FNV-1a
// sum over the payload) so a truncated file, a bit-flipped blob, or a stream
// from a different format version is rejected up front with the typed
// ErrBadCheckpoint instead of surfacing as a confusing gob decode error — or
// worse, decoding into plausible garbage. The seal is an integrity
// check against accidental corruption, not an authenticity mechanism:
// checkpoint files must be protected like process memory regardless.

// ErrBadCheckpoint is the typed error for a checkpoint stream that fails
// the envelope check: wrong magic, unknown version, truncation, or a
// checksum mismatch. It is permanent — retrying the same bytes cannot
// succeed — so recovery paths (RetryPredictor) never retry it.
var ErrBadCheckpoint = errors.New("model: bad checkpoint")

// ckMagic identifies a sealed blindfl checkpoint stream.
var ckMagic = [4]byte{'B', 'F', 'C', 'K'}

// ckVersion is the current envelope format version. 3: one gob root for
// every checkpoint (runCheckpoint), and a layer half holds plaintext pieces,
// momentum and config only — version 2 had a separate serve-checkpoint root
// and kept each half's encrypted copy of the peer's piece.
const ckVersion = 3

// maxCkPayload is the ceiling on a declared payload length. It is a sanity
// bound, not the allocation bound: openEnvelope's buffer grows with the
// bytes actually present, so a header that lies about its length costs no
// more than the stream behind it.
const maxCkPayload = 1 << 31

// sealEnvelope writes payload to w under the versioned checksum header.
func sealEnvelope(w io.Writer, payload []byte) error {
	sum := fnv.New64a()
	sum.Write(payload)
	var hdr [24]byte
	copy(hdr[:4], ckMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], ckVersion)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.BigEndian.PutUint64(hdr[16:24], sum.Sum64())
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("model: write checkpoint envelope: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("model: write checkpoint payload: %w", err)
	}
	return nil
}

// openEnvelope reads and verifies a sealed payload from r. Every failure
// mode is typed ErrBadCheckpoint.
func openEnvelope(r io.Reader) ([]byte, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated envelope header: %v", ErrBadCheckpoint, err)
	}
	if !bytes.Equal(hdr[:4], ckMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic (not a sealed blindfl checkpoint)", ErrBadCheckpoint)
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != ckVersion {
		return nil, fmt.Errorf("%w: envelope version %d, this build reads %d", ErrBadCheckpoint, v, ckVersion)
	}
	n := binary.BigEndian.Uint64(hdr[8:16])
	if n > maxCkPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrBadCheckpoint, n)
	}
	// A checkpoint file is attacker-sized input: read through a limit into a
	// buffer that grows with what arrives, never make([]byte, n) up front.
	var payload bytes.Buffer
	payload.Grow(int(min(n, 64<<10)))
	if got, err := io.Copy(&payload, io.LimitReader(r, int64(n))); err != nil || uint64(got) != n {
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes (%v)", ErrBadCheckpoint, got, n, err)
	}
	sum := fnv.New64a()
	sum.Write(payload.Bytes())
	if sum.Sum64() != binary.BigEndian.Uint64(hdr[16:24]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrBadCheckpoint)
	}
	return payload.Bytes(), nil
}

// WriteFileAtomic publishes b as the file at path: written to a dot-prefixed
// temp file in the same directory, synced, and renamed over path. A crash
// mid-write leaves at worst the temp file, never a truncated file at path —
// the step every checkpoint file goes through, mid-run ones and the one
// blindfl-serve -checkpoint keeps.
func WriteFileAtomic(path string, b []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("model: write %s: %w", path, err)
	}
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("model: write %s: %w", path, err)
	}
	return nil
}
