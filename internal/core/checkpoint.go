package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// Checkpointing. Long-running cross-enterprise training must survive
// restarts, so each layer half serializes its complete state — weight
// pieces, momentum buffers, and the encrypted copies of the peer's pieces —
// with encoding/gob. Each party saves only its own half: a checkpoint
// never contains more information than the running process already held,
// so persistence does not weaken the privacy analysis (protect checkpoint
// files like process memory).

// matMulAState mirrors MatMulA's persistent fields for gob.
type matMulAState struct {
	Cfg   Config
	UA    *tensor.Dense
	VB    *tensor.Dense
	EncVA hetensor.Matrix
	MomUA *tensor.Dense
	MomVB *tensor.Dense
}

// Save writes Party A's half of the layer.
func (l *MatMulA) Save(w io.Writer) error {
	st := matMulAState{Cfg: l.cfg, UA: l.UA, VB: l.VB, EncVA: l.encVA,
		MomUA: l.momUA.buf, MomVB: l.momVB.buf}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save MatMulA: %w", err)
	}
	return nil
}

// LoadMatMulA restores Party A's half onto a live peer session.
func LoadMatMulA(r io.Reader, p *protocol.Peer) (*MatMulA, error) {
	var st matMulAState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load MatMulA: %w", err)
	}
	return &MatMulA{
		cfg: st.Cfg, peer: p,
		UA: st.UA, VB: st.VB, encVA: st.EncVA,
		momUA: momentum{mu: st.Cfg.Momentum, buf: st.MomUA},
		momVB: momentum{mu: st.Cfg.Momentum, buf: st.MomVB},
	}, nil
}

// matMulBState mirrors MatMulB's persistent fields for gob.
type matMulBState struct {
	Cfg   Config
	UB    *tensor.Dense
	VA    *tensor.Dense
	EncVB hetensor.Matrix
	MomUB *tensor.Dense
	MomVA *tensor.Dense
}

// Save writes Party B's half of the layer.
func (l *MatMulB) Save(w io.Writer) error {
	st := matMulBState{Cfg: l.cfg, UB: l.UB, VA: l.VA, EncVB: l.encVB,
		MomUB: l.momUB.buf, MomVA: l.momVA.buf}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save MatMulB: %w", err)
	}
	return nil
}

// LoadMatMulB restores Party B's half onto a live peer session.
func LoadMatMulB(r io.Reader, p *protocol.Peer) (*MatMulB, error) {
	var st matMulBState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load MatMulB: %w", err)
	}
	return &MatMulB{
		cfg: st.Cfg, peer: p,
		UB: st.UB, VA: st.VA, encVB: st.EncVB,
		momUB: momentum{mu: st.Cfg.Momentum, buf: st.MomUB},
		momVA: momentum{mu: st.Cfg.Momentum, buf: st.MomVA},
	}, nil
}

// embedAState mirrors EmbedMatMulA's persistent fields for gob.
type embedAState struct {
	Cfg                        EmbedConfig
	SA, TB, UA, VB             *tensor.Dense
	EncTA                      hetensor.Matrix
	EncVA, EncUB               *hetensor.CipherMatrix
	MomSA, MomTB, MomUA, MomVB *tensor.Dense
}

// Save writes Party A's half of the Embed-MatMul layer.
func (l *EmbedMatMulA) Save(w io.Writer) error {
	st := embedAState{Cfg: l.cfg,
		SA: l.SA, TB: l.TB, UA: l.UA, VB: l.VB,
		EncTA: l.encTA, EncVA: l.encVA, EncUB: l.encUB,
		MomSA: l.momSA.buf, MomTB: l.momTB.buf, MomUA: l.momUA.buf, MomVB: l.momVB.buf}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save EmbedMatMulA: %w", err)
	}
	return nil
}

// LoadEmbedMatMulA restores Party A's Embed-MatMul half.
func LoadEmbedMatMulA(r io.Reader, p *protocol.Peer) (*EmbedMatMulA, error) {
	var st embedAState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load EmbedMatMulA: %w", err)
	}
	mu := st.Cfg.Momentum
	return &EmbedMatMulA{
		cfg: st.Cfg, peer: p,
		SA: st.SA, TB: st.TB, UA: st.UA, VB: st.VB,
		encTA: st.EncTA, encVA: st.EncVA, encUB: st.EncUB,
		momSA: momentum{mu: mu, buf: st.MomSA}, momTB: momentum{mu: mu, buf: st.MomTB},
		momUA: momentum{mu: mu, buf: st.MomUA}, momVB: momentum{mu: mu, buf: st.MomVB},
	}, nil
}

// embedBState mirrors EmbedMatMulB's persistent fields for gob.
type embedBState struct {
	Cfg                        EmbedConfig
	SB, TA, UB, VA             *tensor.Dense
	EncTB                      hetensor.Matrix
	EncVB, EncUA               *hetensor.CipherMatrix
	MomSB, MomTA, MomUB, MomVA *tensor.Dense
}

// Save writes Party B's half of the Embed-MatMul layer.
func (l *EmbedMatMulB) Save(w io.Writer) error {
	st := embedBState{Cfg: l.cfg,
		SB: l.SB, TA: l.TA, UB: l.UB, VA: l.VA,
		EncTB: l.encTB, EncVB: l.encVB, EncUA: l.encUA,
		MomSB: l.momSB.buf, MomTA: l.momTA.buf, MomUB: l.momUB.buf, MomVA: l.momVA.buf}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save EmbedMatMulB: %w", err)
	}
	return nil
}

// LoadEmbedMatMulB restores Party B's Embed-MatMul half.
func LoadEmbedMatMulB(r io.Reader, p *protocol.Peer) (*EmbedMatMulB, error) {
	var st embedBState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load EmbedMatMulB: %w", err)
	}
	mu := st.Cfg.Momentum
	return &EmbedMatMulB{
		cfg: st.Cfg, peer: p,
		SB: st.SB, TA: st.TA, UB: st.UB, VA: st.VA,
		encTB: st.EncTB, encVB: st.EncVB, encUA: st.EncUA,
		momSB: momentum{mu: mu, buf: st.MomSB}, momTA: momentum{mu: mu, buf: st.MomTA},
		momUB: momentum{mu: mu, buf: st.MomUB}, momVA: momentum{mu: mu, buf: st.MomVA},
	}, nil
}
