// Deterministic fault injection: FaultConn wraps one endpoint of a Conn and
// perturbs its outgoing traffic according to a seeded plan — bit-flipped
// chunk payloads, dropped/duplicated/reordered chunks, delayed sends, and a
// hard kill at the k-th message. The schedule is drawn from an internal/rng
// stream named by (seed, label), so a chaos run is bit-reproducible: the same
// seed injects exactly the same faults at exactly the same messages
// (Calvin-style deterministic failure handling — if recovery is
// deterministic, it is testable).
//
// Flip/drop/dup/reorder target *StreamChunk envelopes only: chunks carry the
// matrix payloads the checksums guard, and they are the unit the NACK/resend
// recovery can re-request. Control messages (headers, end markers, acks,
// handshakes) are faulted separately through CtrlFlipProb/CtrlDropProb:
// corruption there models a broken transport and must surface as a typed
// protocol error (every control envelope is checksummed), while a dropped
// control message hangs the peer — which the deadline layer (DeadlineConn)
// converts into a typed ErrTimeout. Delay applies to any message; the kill
// counter counts every message.
//
// Flips clone the payload before mutating it: the in-process transports pass
// references, and the sender retains its chunk payloads for retransmission —
// a fault on the wire must not reach back into the sender's pristine copy.
package transport

import (
	"math"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/rng"
	"blindfl/internal/tensor"
)

// FaultPlan is the seeded fault schedule of one FaultConn. Probabilities are
// per matching message; the zero plan injects nothing.
type FaultPlan struct {
	FlipProb    float64 // flip one payload bit of a StreamChunk
	DropProb    float64 // drop a StreamChunk
	DupProb     float64 // send a StreamChunk twice
	ReorderProb float64 // hold a StreamChunk and send it after the next message

	// Control-plane faults. CtrlFlipProb corrupts one field of a control
	// message (StreamHeader, StreamEnd, StreamAck, Handshake) while keeping
	// its now-stale checksum, so the corruption is detectable; CtrlDropProb
	// drops the control message entirely, hanging the peer that waits on it.
	// Both count against MaxFaults. The zero values leave control traffic
	// untouched and draw nothing from the rng stream, so pre-existing
	// chunk-only plans keep their exact fault schedules.
	CtrlFlipProb float64
	CtrlDropProb float64

	DelayProb float64       // delay any message by Delay before sending
	Delay     time.Duration // the injected delay

	KillAtMsg int64 // close the conn at this 1-based send ordinal (0 = never)

	// MaxFaults bounds the total chunk faults (flips+drops+dups+reorders)
	// injected over the conn's lifetime; 0 means unlimited. A bounded budget
	// lets a chaos test corrupt the first pass of a stream while guaranteeing
	// the retransmission round goes through clean, so recovery is exercised
	// deterministically instead of racing the same fault probability twice.
	MaxFaults int64
}

// FaultStats counts the faults a FaultConn actually injected.
type FaultStats struct {
	Flips, Drops, Dups, Reorders, Delays int64
	CtrlFlips, CtrlDrops                 int64
	Killed                               bool
}

// FaultConn wraps a Conn endpoint with a deterministic fault schedule on its
// Send side. Recv, Stats and Close pass through.
type FaultConn struct {
	inner Conn
	plan  FaultPlan

	mu    sync.Mutex
	rng   *rand.Rand
	n     int64 // send ordinal
	held  any   // a reordered message waiting to follow the next send
	stats FaultStats
}

// NewFaultConn wraps inner with the plan, drawing the fault schedule from the
// (seed, "fault-plan:"+label) rng stream.
func NewFaultConn(inner Conn, seed int64, label string, plan FaultPlan) *FaultConn {
	return &FaultConn{inner: inner, plan: plan, rng: rng.New(seed, "fault-plan:"+label)}
}

// Injected returns the faults injected so far.
func (f *FaultConn) Injected() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FaultConn) Send(v any) error {
	f.mu.Lock()
	f.n++
	kill := f.plan.KillAtMsg > 0 && f.n == f.plan.KillAtMsg
	delay := time.Duration(0)
	if f.plan.DelayProb > 0 && f.rng.Float64() < f.plan.DelayProb {
		delay = f.plan.Delay
		f.stats.Delays++
	}
	var flip, drop, dup, reorder bool
	injected := f.stats.Flips + f.stats.Drops + f.stats.Dups + f.stats.Reorders +
		f.stats.CtrlFlips + f.stats.CtrlDrops
	inBudget := f.plan.MaxFaults == 0 || injected < f.plan.MaxFaults
	if _, isChunk := v.(*StreamChunk); isChunk && inBudget {
		flip = f.plan.FlipProb > 0 && f.rng.Float64() < f.plan.FlipProb
		drop = f.plan.DropProb > 0 && f.rng.Float64() < f.plan.DropProb
		dup = f.plan.DupProb > 0 && f.rng.Float64() < f.plan.DupProb
		reorder = f.plan.ReorderProb > 0 && f.rng.Float64() < f.plan.ReorderProb
	}
	var cflip, cdrop bool
	if isCtrlMessage(v) && inBudget && (f.plan.CtrlFlipProb > 0 || f.plan.CtrlDropProb > 0) {
		cflip = f.plan.CtrlFlipProb > 0 && f.rng.Float64() < f.plan.CtrlFlipProb
		cdrop = f.plan.CtrlDropProb > 0 && f.rng.Float64() < f.plan.CtrlDropProb
	}
	if flip {
		if fv, ok := flipChunk(v.(*StreamChunk), f.rng); ok {
			v = fv
			f.stats.Flips++
		}
	}
	if cflip {
		if fv, ok := flipCtrl(v, f.rng); ok {
			v = fv
			f.stats.CtrlFlips++
		}
	}
	held := f.held
	f.held = nil
	switch {
	case kill:
		f.stats.Killed = true
	case drop:
		f.stats.Drops++
		v = nil
	case cdrop:
		f.stats.CtrlDrops++
		v = nil
	case dup:
		f.stats.Dups++
	case reorder:
		f.stats.Reorders++
		f.held = v
		v = nil
	}
	f.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if kill {
		f.inner.Close()
		return ErrClosed
	}
	if v != nil {
		if err := f.inner.Send(v); err != nil {
			return err
		}
		if dup {
			if err := f.inner.Send(v); err != nil {
				return err
			}
		}
	}
	if held != nil {
		if err := f.inner.Send(held); err != nil {
			return err
		}
	}
	return nil
}

func (f *FaultConn) Recv() (any, error) { return f.inner.Recv() }

func (f *FaultConn) Stats() (int64, int64) { return f.inner.Stats() }

func (f *FaultConn) Close() error { return f.inner.Close() }

// flipChunk returns a copy of the chunk with one payload bit flipped and the
// stale checksum retained (so the flip is detectable). The payload is deep-
// copied along the mutated path only; unrecognized payload types are left
// untouched (ok = false).
func flipChunk(chunk *StreamChunk, r *rand.Rand) (*StreamChunk, bool) {
	fv, ok := flipPayload(chunk.V, r)
	if !ok {
		return chunk, false
	}
	cc := *chunk
	cc.V = fv
	return &cc, true
}

func flipPayload(v any, r *rand.Rand) (any, bool) {
	switch m := v.(type) {
	case *tensor.Dense:
		if len(m.Data) == 0 {
			return nil, false
		}
		cp := *m
		cp.Data = append([]float64(nil), m.Data...)
		i := r.Intn(len(cp.Data))
		cp.Data[i] = flipFloatBit(cp.Data[i], r)
		return &cp, true
	case *hetensor.Matrix:
		cs, ok := flipOneCipher(m.C, r)
		if !ok {
			return nil, false
		}
		cp := *m
		cp.C = cs
		return &cp, true
	default:
		return nil, false
	}
}

// flipOneCipher clones the cell slice and one randomly chosen ciphertext,
// flipping one bit of its value.
func flipOneCipher(cells []*paillier.Ciphertext, r *rand.Rand) ([]*paillier.Ciphertext, bool) {
	var candidates []int
	for i, c := range cells {
		if c != nil && c.C != nil {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil, false
	}
	i := candidates[r.Intn(len(candidates))]
	cs := append([]*paillier.Ciphertext(nil), cells...)
	x := new(big.Int).Set(cs[i].C)
	bit := 0
	if bl := x.BitLen(); bl > 0 {
		bit = r.Intn(bl)
	}
	x.SetBit(x, bit, 1-x.Bit(bit))
	cs[i] = &paillier.Ciphertext{C: x}
	return cs, true
}

// isCtrlMessage reports whether v is a control-plane envelope — the messages
// that frame streams and set up sessions, as opposed to chunk payloads.
func isCtrlMessage(v any) bool {
	switch v.(type) {
	case *StreamHeader, *StreamEnd, *StreamAck, *Handshake:
		return true
	}
	return false
}

// flipCtrl returns a copy of the control message with one framing field
// perturbed and the now-stale checksum retained (where the type carries one),
// so the corruption is detectable rather than silently re-sealed.
func flipCtrl(v any, r *rand.Rand) (any, bool) {
	switch m := v.(type) {
	case *StreamHeader:
		cp := *m
		cp.Rows ^= 1 << uint(r.Intn(16))
		return &cp, true
	case *StreamEnd:
		cp := *m
		cp.Seq ^= 1 << uint(r.Intn(16))
		return &cp, true
	case *StreamAck:
		cp := *m
		cp.Bad = append([]int(nil), m.Bad...)
		cp.Seq ^= 1 << uint(r.Intn(16))
		return &cp, true
	case *Handshake:
		cp := *m
		cp.Sum ^= 1 << uint(r.Intn(64))
		return &cp, true
	}
	return nil, false
}

func flipFloatBit(x float64, r *rand.Rand) float64 {
	// Flip a mantissa bit so the value stays finite and ordinary.
	return math.Float64frombits(math.Float64bits(x) ^ (1 << uint(r.Intn(52))))
}
