package model

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"

	"blindfl/internal/data"
	"blindfl/internal/protocol"
)

// Run checkpoints: durable mid-training snapshots a crashed run resumes from
// bit-exactly. Resume redoes the weight exchange from the restored plaintext
// pieces (core ResumeExchange) — fresh encryption randomness does not change
// the decrypted values — and the mask streams are re-derived per epoch
// (protocol.Peer.SeedEpoch).

// runCkpt collects the per-party deposits for each checkpointed epoch and
// publishes the assembled checkpoint once all k+1 arrive: a mid-run epoch's
// to CheckpointDir at once, the last epoch's to Trainer.Checkpoint once the
// run has succeeded (finish). Which epochs deposit is the schedule's decision
// (schedule.each), made identically by every party. The training closures
// run concurrently (one goroutine per party), so the collector locks. Write
// errors are recorded and surfaced once by finish — a failing checkpoint
// disk should not tear down an otherwise healthy training run mid-epoch.
type runCkpt struct {
	t    Trainer
	ds   *data.Dataset
	inAs []int

	mu    sync.Mutex
	pend  map[int]*runCheckpoint
	n     map[int]int
	final *runCheckpoint // the last epoch's, awaiting finish
	err   error
}

// newRunCkpt returns nil without a destination; the schedule then never
// calls a deposit, and finish on nil reports no error.
func newRunCkpt(t Trainer, ds *data.Dataset, inAs []int) *runCkpt {
	if t.CheckpointDir == "" && t.Checkpoint == nil {
		return nil
	}
	return &runCkpt{t: t, ds: ds, inAs: inAs,
		pend: make(map[int]*runCheckpoint), n: make(map[int]int)}
}

// depositA adds feature party i's layer half for epoch e.
func (c *runCkpt) depositA(e, i int, ma *FedA) {
	blob, err := saveLayerA(ma)
	c.add(e, err, func(ck *runCheckpoint) { ck.LayerA[i] = blob })
}

// depositB adds the label party's halves (serialized locally, or gathered
// from the shard workers), head, momentum and loss prefix for epoch e.
// losses is read under the collector lock inside add — the label party
// goroutine owns it, and it appends only between deposits.
func (c *runCkpt) depositB(e int, mb *FedB, losses []float64) {
	blobs, err := mb.num.layers(e)
	c.add(e, err, func(ck *runCheckpoint) {
		ck.LayerB = blobs
		ck.Head = headParams(mb.head)
		ck.HeadMom = mb.opt.MomentumState()
		ck.Losses = append([]float64(nil), losses...)
	})
}

func (c *runCkpt) add(e int, err error, fill func(*runCheckpoint)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return
	}
	ck := c.pend[e]
	if ck == nil {
		ck = &runCheckpoint{
			Kind: c.t.Kind, Classes: c.ds.Spec.Classes, Hyper: c.t.Hyper,
			InAs: c.inAs, InB: c.ds.TrainB.NumCols(), Epoch: e + 1,
			LayerA:      make([][]byte, len(c.inAs)),
			Fingerprint: c.t.Hyper.Options.Fingerprint(),
		}
		c.pend[e] = ck
	}
	fill(ck)
	c.n[e]++
	if c.n[e] < len(c.inAs)+1 {
		return
	}
	delete(c.pend, e)
	delete(c.n, e)
	if ck.Epoch == c.t.Hyper.Epochs {
		c.final = ck
	} else if err := c.writeFile(ck); err != nil && c.err == nil {
		c.err = err
	}
}

// writeFile publishes the checkpoint as CheckpointDir/ckpt-<epoch>.
// WriteFileAtomic's temp file is dot-prefixed, so the resume scan never sees
// it, and a crash mid-write never leaves a truncated ckpt- file (even one of
// those would fail the envelope check).
func (c *runCkpt) writeFile(ck *runCheckpoint) error {
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, ck); err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(c.t.CheckpointDir, fmt.Sprintf("ckpt-%05d", ck.Epoch)), buf.Bytes())
}

// finish surfaces the first recorded deposit/write error after the run, then
// writes the last epoch's checkpoint to Trainer.Checkpoint when one is set.
func (c *runCkpt) finish() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || c.t.Checkpoint == nil {
		return c.err
	}
	if c.final == nil {
		return fmt.Errorf("model: no completed epoch to checkpoint")
	}
	return writeCheckpoint(c.t.Checkpoint, c.final)
}

// ckptEpoch parses a published checkpoint name, ckpt-<epoch>; ok is false for
// any other name.
func ckptEpoch(name string) (epoch int, ok bool) {
	digits, found := strings.CutPrefix(name, "ckpt-")
	epoch, err := strconv.Atoi(digits)
	return epoch, found && err == nil && epoch >= 0
}

// latestRunCheckpoint scans dir for the newest usable checkpoint, newest by
// the epoch in its name (not by the name's bytes: ckpt-99999 sorts after
// ckpt-100000). Files failing the envelope or shape checks (a crash can leave
// the newest file unreadable only if the filesystem lied about the rename,
// but a disk can rot any of them) are skipped in favor of the next-oldest;
// only when no file is usable does the scan fail, with the last typed error.
func latestRunCheckpoint(dir string) (*runCheckpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("model: scan checkpoint dir: %w", err)
	}
	epochs := make(map[string]int)
	for _, e := range entries {
		if epoch, ok := ckptEpoch(e.Name()); ok && !e.IsDir() {
			epochs[e.Name()] = epoch
		}
	}
	newestFirst := slices.SortedFunc(maps.Keys(epochs), func(a, b string) int { return cmp.Compare(epochs[b], epochs[a]) })
	var lastErr error
	for _, name := range newestFirst {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("model: open run checkpoint: %w", err)
		}
		ck, err := readCheckpoint(f)
		f.Close()
		if err == nil {
			return ck, nil
		}
		lastErr = fmt.Errorf("%s: %w", path, err) // every readCheckpoint error is an ErrBadCheckpoint
	}
	if lastErr != nil {
		return nil, fmt.Errorf("model: no usable run checkpoint in %s (last: %w)", dir, lastErr)
	}
	return nil, fmt.Errorf("model: no run checkpoint in %s", dir)
}

// Resume restores the newest usable run checkpoint from CheckpointDir onto
// the party set's fresh sessions and trains the remaining epochs. The
// resumed run is bit-identical to the uninterrupted one: losses, the test
// metric and the test logits all match, because every random stream the
// remaining epochs touch is re-derived, not continued — batch order from
// the hyper seed (replayed through the completed epochs), mask streams from
// the per-epoch RNG discipline, and the serve-path evaluation is
// mask-independent to begin with. Sessions must carry a stream identity
// (protocol pipes set one; hand-assembled peers must call
// SetStreamIdentity), and the Trainer's hyper-parameters and engine options
// must match the checkpointed run's (epoch count excepted — raising it
// trains further). A checkpoint that cannot be restored fails typed
// (ErrBadCheckpoint) before any session is touched.
func (t Trainer) Resume(ds *data.Dataset, ps PartySet) (*History, error) {
	ck, err := t.latestCheckpoint("Resume")
	if err != nil {
		return nil, err
	}
	if err := ps.check("Resume"); err != nil {
		return nil, err
	}
	for _, p := range append(append([]*protocol.Peer{}, ps.As...), ps.B.Peers...) {
		if !p.HasStreamIdentity() {
			return nil, fmt.Errorf("model: Resume needs sessions with a stream identity (protocol pipes record one; set SetStreamIdentity on hand-assembled peers)")
		}
	}
	return t.trainGroup(ds, ps, ck)
}

// latestCheckpoint picks the checkpoint op resumes from.
func (t Trainer) latestCheckpoint(op string) (*runCheckpoint, error) {
	if t.CheckpointDir == "" {
		return nil, fmt.Errorf("model: %s needs CheckpointDir", op)
	}
	return latestRunCheckpoint(t.CheckpointDir)
}

// errCkMismatch types the refusal of a sound checkpoint that belongs to a
// different run: another party count, family, dataset shape, engine
// configuration or hyper-parameters.
var errCkMismatch = errors.New("model: checkpoint does not match this run")

// resumeCompat checks a restored checkpoint against the trainer's
// configuration and the run's shape — the validation gate of every resume.
// inAs are the per-session feature widths the caller will run; a
// checkpoint's *shard* topology is deliberately not checked (any shard count
// resumes any checkpoint), but its sessions, model family, dataset shape,
// engine options and hyper-parameters must match for the resumed trajectory
// to be the uninterrupted run's.
func (t Trainer) resumeCompat(ck *runCheckpoint, ds *data.Dataset, inAs []int) error {
	if !slices.Equal(ck.InAs, inAs) || ck.InB != ds.TrainB.NumCols() || ck.Classes != ds.Spec.Classes {
		return fmt.Errorf("%w: it spans feature widths %v + %d over %d classes, this run %v + %d over %d",
			errCkMismatch, ck.InAs, ck.InB, ck.Classes, inAs, ds.TrainB.NumCols(), ds.Spec.Classes)
	}
	if ck.Kind != t.Kind {
		return fmt.Errorf("%w: it is a %s run, trainer wants %s", errCkMismatch, ck.Kind, t.Kind)
	}
	if ck.Fingerprint != t.Hyper.Options.Fingerprint() {
		return fmt.Errorf("%w: engine options changed since the checkpoint (fingerprint %016x, trainer %016x) — a resume under a different engine configuration would not be bit-exact",
			errCkMismatch, ck.Fingerprint, t.Hyper.Options.Fingerprint())
	}
	ckH, h := ck.Hyper, t.Hyper
	ckH.Epochs, h.Epochs = 0, 0
	if !reflect.DeepEqual(ckH, h) {
		return fmt.Errorf("%w: hyper-parameters differ from the checkpointed run (only the epoch count may change on resume)", errCkMismatch)
	}
	if ck.Epoch >= t.Hyper.Epochs {
		return fmt.Errorf("%w: it already covers %d of %d epochs — nothing to resume", errCkMismatch, ck.Epoch, t.Hyper.Epochs)
	}
	return nil
}
