package core

import (
	"math"

	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// momentum applies momentum SGD to one secret-share piece. Momentum is a
// linear operator, so applying it to each additive piece independently is
// exactly equivalent to applying it to the reconstructed gradient — the
// property that lets BlindFL run momentum SGD on weights that neither party
// holds (Sec. 7.1, "FederatedSGD").
type momentum struct {
	mu  float64
	buf *tensor.Dense
}

// step performs buf = mu·buf + grad; w −= lr·buf, in place on w.
func (m *momentum) step(w, grad *tensor.Dense, lr float64) {
	if m.buf == nil {
		m.buf = tensor.NewDense(grad.Rows, grad.Cols)
	}
	if m.mu == 0 {
		w.Axpy(-lr, grad)
		return
	}
	for i, g := range grad.Data {
		m.buf.Data[i] = m.mu*m.buf.Data[i] + g
	}
	w.Axpy(-lr, m.buf)
}

// stepRows applies the update only to the given rows of w; gradRows row i is
// the gradient of w row idx[i]. Momentum is "lazy": untouched rows keep
// their stale buffer until next touched — the standard sparse-SGD
// approximation used for high-dimensional embeddings and linear models.
func (m *momentum) stepRows(w, gradRows *tensor.Dense, idx []int, lr float64) {
	if m.buf == nil {
		m.buf = tensor.NewDense(w.Rows, w.Cols)
	}
	for i, r := range idx {
		grow := gradRows.Row(i)
		brow := m.buf.Row(r)
		wrow := w.Row(r)
		for j, g := range grow {
			brow[j] = m.mu*brow[j] + g
			wrow[j] -= lr * brow[j]
		}
	}
}

// Config carries the hyper-parameters shared by both halves of a source
// layer. Both parties must construct their halves with identical values for
// everything that shapes the model. The engine has nothing to configure here:
// a party packs what it encrypts (lanes), its producing sends stream, and it
// takes what arrives as it comes.
type Config struct {
	Out       int     // output dimensionality of the source layer
	LR        float64 // learning rate η
	Momentum  float64 // momentum coefficient μ (0 disables)
	InitScale float64 // uniform init range for weight pieces; 0 means 0.1

	// GroupParties marks the layer as one session of a k-party group
	// (Appendix C, Algorithm 3) jointly representing Party B's weights:
	// W_B = Σᵢ(U_B(i) + V_B(i)) over the k sessions. The W_B pieces each
	// session draws — A's V_B and B's U_B — are initialized at
	// InitScale/√k, so the variance of the 2k-piece sum matches the
	// two-party W_B = U_B + V_B (2 pieces at the full scale); the
	// per-session W_A pieces (U_A, V_A) keep the full scale (W_A is
	// column-partitioned across sessions, not summed). 0 or 1 means the
	// ordinary two-party layer. Both parties of every session must agree on
	// the value.
	GroupParties int
}

// lanes is the lane format a party encrypts its weight pieces and
// derivatives in, in column blocks of block (0: the whole row): packed, as
// many fixed-point lanes per Paillier plaintext as the key holds. A lane
// holds the integer its own ciphertext would have, so every result equals the
// one-value-per-ciphertext protocol's bit for bit.
func lanes(block int) hetensor.Layout {
	return hetensor.Layout{Packed: true, Block: block}
}

// sendPacked ships d (a weight piece or a derivative) under this party's key
// in lanes(block).
func sendPacked(p *protocol.Peer, d *tensor.Dense, scale uint, block int) {
	p.EncryptAndSend(d, scale, lanes(block))
}

// recvCipher receives a rows×cols matrix at scale 1 that the protocol fixes
// as one value per ciphertext: the sparse layer's rows and derivative, and
// the serve path's weight pieces.
func recvCipher(p *protocol.Peer, rows, cols int) *hetensor.Matrix {
	c := p.RecvMatrix()
	if c.Rows != rows || c.Cols != cols || c.Scale != 1 || c.GroupsPerRow() != c.Cols {
		p.Fail("recv: %w: a %d×%d matrix at scale %d in %d ciphertexts a row, want %d×%d at scale 1, one value each",
			transport.ErrCorrupt, c.Rows, c.Cols, c.Scale, c.GroupsPerRow(), rows, cols)
	}
	return c
}

// recvIndices receives a coordinate list and vets it: strictly increasing
// and inside [0, n). Each index later addresses a row of an n-row piece;
// out of range, it would panic outside Fail and take the process down.
func recvIndices(p *protocol.Peer, n int) []int {
	idx := p.RecvInts()
	for i, k := range idx {
		if k < 0 || k >= n || i > 0 && k <= idx[i-1] {
			p.Fail("recv: %w: index %d at %d is out of order or outside %d rows", transport.ErrCorrupt, k, i, n)
		}
	}
	return idx
}

func (c Config) initScale() float64 {
	if c.InitScale == 0 {
		return 0.1
	}
	return c.InitScale
}

// groupPieceDiv returns the divisor for the W_B piece init draws: √k for a
// k-session group, so the 2k independent uniform pieces sum to a W_B with
// the variance of the two-party U_B + V_B pair at full scale (each piece
// contributes scale²/3, so 2k·(s/√k)²/3 = 2s²/3); 1 for the two-party
// layer.
func (c Config) groupPieceDiv() float64 {
	if c.GroupParties > 1 {
		return math.Sqrt(float64(c.GroupParties))
	}
	return 1
}
