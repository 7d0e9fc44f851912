package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// Checkpointing. Long-running cross-enterprise training must survive
// restarts, so each layer half serializes its plaintext state — config,
// weight pieces and momentum buffers — with encoding/gob. The encrypted copy
// of the peer's piece is not saved: it is under a per-session key, so every
// restore redoes the exchange that mints it (ResumeExchange for training,
// ServeStart for serving). Each party saves only its own half: a checkpoint
// never contains more information than the running process already held,
// so persistence does not weaken the privacy analysis (protect checkpoint
// files like process memory).

// matMulAState mirrors MatMulA's persistent fields for gob.
type matMulAState struct {
	Cfg   Config
	UA    *tensor.Dense
	VB    *tensor.Dense
	MomUA *tensor.Dense
	MomVB *tensor.Dense
}

// Save writes Party A's half of the layer.
func (l *MatMulA) Save(w io.Writer) error {
	st := matMulAState{Cfg: l.cfg, UA: l.UA, VB: l.VB, MomUA: l.momUA.buf, MomVB: l.momVB.buf}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save MatMulA: %w", err)
	}
	return nil
}

// LoadMatMulA restores Party A's half onto a live peer session. inA, inB and
// out are the shape the enclosing checkpoint declares for this session; a
// decoded half that disagrees with it is refused here rather than handed back
// to fail on its first Forward. The half has no encrypted copy of the peer's
// piece until ResumeExchange or ServeStart runs.
func LoadMatMulA(r io.Reader, p *protocol.Peer, inA, inB, out int) (*MatMulA, error) {
	var st matMulAState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load MatMulA: %w", err)
	}
	if err := checkHalf(st.Cfg, out, st.UA, st.MomUA, inA, st.VB, st.MomVB, inB); err != nil {
		return nil, fmt.Errorf("core: load MatMulA: %w", err)
	}
	return &MatMulA{
		cfg: st.Cfg, peer: p,
		UA: st.UA, VB: st.VB,
		momUA: momentum{mu: st.Cfg.Momentum, buf: st.MomUA},
		momVB: momentum{mu: st.Cfg.Momentum, buf: st.MomVB},
	}, nil
}

// checkHalf validates a decoded layer half against the declared shape: the
// W_A piece is inA×out, the W_B piece inB×out, each momentum buffer absent
// or shaped like its piece, and every value finite (a NaN weight would panic
// the fixed-point encoder at the first exchange).
func checkHalf(cfg Config, out int, pieceA, momA *tensor.Dense, inA int, pieceB, momB *tensor.Dense, inB int) error {
	if cfg.Out != out || out < 1 || inA < 1 || inB < 1 {
		return fmt.Errorf("layer is %d wide, checkpoint declares %d+%d features by %d", cfg.Out, inA, inB, out)
	}
	if math.IsNaN(cfg.LR+cfg.Momentum) || math.IsInf(cfg.LR+cfg.Momentum, 0) {
		return fmt.Errorf("non-finite learning rate or momentum")
	}
	if !pieceA.WellFormed(inA, out) || !pieceB.WellFormed(inB, out) {
		return fmt.Errorf("weight piece missing or not %d×%d / %d×%d", inA, out, inB, out)
	}
	if momA != nil && !momA.WellFormed(inA, out) || momB != nil && !momB.WellFormed(inB, out) {
		return fmt.Errorf("momentum buffer not shaped like its weight piece")
	}
	return nil
}

// matMulBState mirrors MatMulB's persistent fields for gob.
type matMulBState struct {
	Cfg   Config
	UB    *tensor.Dense
	VA    *tensor.Dense
	MomUB *tensor.Dense
	MomVA *tensor.Dense
}

// Save writes Party B's half of the layer.
func (l *MatMulB) Save(w io.Writer) error {
	st := matMulBState{Cfg: l.cfg, UB: l.UB, VA: l.VA, MomUB: l.momUB.buf, MomVA: l.momVA.buf}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save MatMulB: %w", err)
	}
	return nil
}

// LoadMatMulB restores Party B's half onto a live peer session, with the
// same shape check as LoadMatMulA.
func LoadMatMulB(r io.Reader, p *protocol.Peer, inA, inB, out int) (*MatMulB, error) {
	var st matMulBState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load MatMulB: %w", err)
	}
	if err := checkHalf(st.Cfg, out, st.VA, st.MomVA, inA, st.UB, st.MomUB, inB); err != nil {
		return nil, fmt.Errorf("core: load MatMulB: %w", err)
	}
	return &MatMulB{
		cfg: st.Cfg, peer: p,
		UB: st.UB, VA: st.VA,
		momUB: momentum{mu: st.Cfg.Momentum, buf: st.MomUB},
		momVA: momentum{mu: st.Cfg.Momentum, buf: st.MomVA},
	}, nil
}
