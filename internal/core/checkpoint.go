package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// The source-layer contract. Every half — dense MatMul, sparse MatMul and
// Embed-MatMul, on either party — is driven beyond its forward and backward
// through the same four calls, so a run settles, checkpoints and resumes
// every layer one way:
//
//   - Settle ends what the last step left owed. Only a sparse step ends with
//     a flight in the air (A's masked touched-row gradient, taken at the head
//     of B's next forward); a dense or embedding half has nothing owed.
//   - Save writes the half's plaintext state — config, weight pieces and
//     momentum buffers — with encoding/gob. It never writes ciphertexts or
//     row caches: the encrypted copies of the peer's pieces are under a
//     per-session key, and a sparse layer's row caches refill on touch. A
//     half that still owes a gradient refuses with ErrUnsettled, since its
//     pieces are off by a mask until it settles.
//   - A Load… constructor reads what Save wrote onto a live peer session and
//     vets it against the shape the enclosing checkpoint declares.
//   - ResumeExchange re-mints the encrypted copies from the plaintext pieces,
//     in the wire order of the constructor's exchange (a no-op for a sparse
//     half, which fetches rows on touch). Training runs it after a load;
//     serving runs ServeStart instead.
//
// Each party saves only its own half: a checkpoint never contains more
// information than the running process already held, so persistence does not
// weaken the privacy analysis (protect checkpoint files like process memory).

// Half is the per-party contract every source-layer half keeps.
type Half interface {
	Settle()
	Save(w io.Writer) error
	ResumeExchange()
}

// NumericA is a feature party's MatMul half, dense or sparse.
type NumericA interface {
	Half
	Forward(x Numeric)
	Backward()
}

// NumericB is the label party's MatMul half, dense or sparse: what the group
// layer drives on each session.
type NumericB interface {
	Half
	Forward(x Numeric) *tensor.Dense
	Backward(gradZ *tensor.Dense)
	backwardMulti(gradFull, gradLocal *tensor.Dense)
	pieces() (ub, va *tensor.Dense)
}

// ErrUnsettled is the typed refusal to read the pieces of a half that still
// owes the last step's gradient: they sum to W only after Settle.
var ErrUnsettled = errors.New("core: layer half read before Settle")

// save gob-encodes a half's state struct, or refuses an owed half.
func save(w io.Writer, what string, owed bool, st any) error {
	if owed {
		return fmt.Errorf("core: save %s: %w", what, ErrUnsettled)
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("core: save %s: %w", what, err)
	}
	return nil
}

// load decodes a half's state struct and runs its check.
func load(r io.Reader, what string, st any, check func() error) error {
	err := gob.NewDecoder(r).Decode(st)
	if err == nil {
		err = check()
	}
	if err != nil {
		return fmt.Errorf("core: load %s: %w", what, err)
	}
	return nil
}

// matMulAState mirrors a MatMul A-half's persistent fields for gob, dense or
// sparse (a sparse A half has no V_B momentum).
type matMulAState struct {
	Cfg   Config
	UA    *tensor.Dense
	VB    *tensor.Dense
	MomUA *tensor.Dense
	MomVB *tensor.Dense
}

// matMulBState mirrors a MatMul B-half's persistent fields for gob, dense or
// sparse.
type matMulBState struct {
	Cfg   Config
	UB    *tensor.Dense
	VA    *tensor.Dense
	MomUB *tensor.Dense
	MomVA *tensor.Dense
}

// Settle is a no-op: a dense step leaves nothing owed.
func (l *MatMulA) Settle() {}

// Settle is a no-op: a dense step leaves nothing owed.
func (l *MatMulB) Settle() {}

// Save writes Party A's half of the layer.
func (l *MatMulA) Save(w io.Writer) error {
	return save(w, "MatMulA", false, matMulAState{l.cfg, l.UA, l.VB, l.momUA.buf, l.momVB.buf})
}

// Save writes Party B's half of the layer.
func (l *MatMulB) Save(w io.Writer) error {
	return save(w, "MatMulB", false, matMulBState{l.cfg, l.UB, l.VA, l.momUB.buf, l.momVA.buf})
}

// LoadMatMulA restores Party A's MatMul half — sparse or dense, as the
// enclosing checkpoint declares — onto a live peer session. inA, inB and out
// are the shape it declares for this session; a decoded half that disagrees
// with it is refused here rather than handed back to fail on its first
// Forward. A dense half has no encrypted copy of the peer's piece until
// ResumeExchange or ServeStart runs; a sparse half's row cache starts empty.
func LoadMatMulA(r io.Reader, p *protocol.Peer, sparse bool, inA, inB, out int) (NumericA, error) {
	var st matMulAState
	if err := load(r, "MatMulA", &st, func() error {
		return checkHalf(st.Cfg, out, piece{st.UA, st.MomUA, inA, out}, piece{st.VB, st.MomVB, inB, out})
	}); err != nil {
		return nil, err
	}
	mu := st.Cfg.Momentum
	if sparse {
		return &SparseMatMulA{cfg: st.Cfg, peer: p, UA: st.UA, VB: st.VB,
			cacheVA: newRowCache(st.Cfg.Out), momUA: momentum{mu, st.MomUA}}, nil
	}
	return &MatMulA{cfg: st.Cfg, peer: p, UA: st.UA, VB: st.VB,
		momUA: momentum{mu, st.MomUA}, momVB: momentum{mu, st.MomVB}}, nil
}

// LoadMatMulB restores Party B's MatMul half onto a live peer session, with
// the same shape check as LoadMatMulA.
func LoadMatMulB(r io.Reader, p *protocol.Peer, sparse bool, inA, inB, out int) (NumericB, error) {
	var st matMulBState
	if err := load(r, "MatMulB", &st, func() error {
		return checkHalf(st.Cfg, out, piece{st.VA, st.MomVA, inA, out}, piece{st.UB, st.MomUB, inB, out})
	}); err != nil {
		return nil, err
	}
	mu := st.Cfg.Momentum
	if sparse {
		return &SparseMatMulB{cfg: st.Cfg, peer: p, UB: st.UB, VA: st.VA,
			cacheVB: newRowCache(st.Cfg.Out), momUB: momentum{mu, st.MomUB}, momVA: momentum{mu, st.MomVA}}, nil
	}
	return &MatMulB{cfg: st.Cfg, peer: p, UB: st.UB, VA: st.VA,
		momUB: momentum{mu, st.MomUB}, momVA: momentum{mu, st.MomVA}}, nil
}

// piece is one decoded weight piece with its momentum buffer and the shape
// the enclosing checkpoint declares for it.
type piece struct {
	w, mom     *tensor.Dense
	rows, cols int
}

// checkHalf validates a decoded layer half against the declared shape: the
// layer is out wide, every piece is its declared shape, each momentum buffer
// absent or shaped like its piece, and every value finite (a NaN weight would
// panic the fixed-point encoder at the first exchange).
func checkHalf(cfg Config, out int, pieces ...piece) error {
	if cfg.Out != out || out < 1 {
		return fmt.Errorf("layer is %d wide, checkpoint declares %d", cfg.Out, out)
	}
	if math.IsNaN(cfg.LR+cfg.Momentum) || math.IsInf(cfg.LR+cfg.Momentum, 0) {
		return fmt.Errorf("non-finite learning rate or momentum")
	}
	for i, pc := range pieces {
		if pc.rows < 1 || !pc.w.WellFormed(pc.rows, pc.cols) {
			return fmt.Errorf("weight piece %d missing or not %d×%d", i, pc.rows, pc.cols)
		}
		if pc.mom != nil && !pc.mom.WellFormed(pc.rows, pc.cols) {
			return fmt.Errorf("momentum buffer %d not shaped like its weight piece", i)
		}
	}
	return nil
}
