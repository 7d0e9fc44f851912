package core

import (
	"blindfl/internal/tensor"
)

// Federated (SS-based) top model support for the MatMul source layer
// (paper Appendix B, Fig. 13). When the top model is itself secret-shared,
// Party B must not see Z or ∇Z either: the source layer outputs the share
// pair ⟨Z'_A, Z'_B⟩ directly (the forward halves already are additive
// shares of Z) and consumes a share pair ⟨ε, ∇Z−ε⟩ on the way back. The
// derivative shares are converted to ⟦∇Z⟧ under each key via SS2HE
// (Algorithm 2), after which both parties' weight pieces update through
// masked HE2SS exactly as in the non-federated-top protocol — except that
// now ∇W_B is also computed homomorphically, since B no longer holds ∇Z in
// plaintext.

// ForwardSS runs Party A's forward pass for a federated top model and
// returns A's share Z'_A instead of shipping it to B (Fig. 13 line 1).
func (l *MatMulA) ForwardSS(x Numeric) *tensor.Dense {
	l.x = x
	return forwardHalf(l.peer, x, l.UA, l.encVA)
}

// ForwardSS runs Party B's forward pass and returns B's share Z'_B.
func (l *MatMulB) ForwardSS(x Numeric) *tensor.Dense {
	l.x = x
	return forwardHalf(l.peer, x, l.UB, l.encVB)
}

// BackwardSS runs Party A's backward pass given A's derivative share ε
// (Fig. 13 lines 2–8). Both of A's held pieces (U_A and V_B) update.
func (l *MatMulA) BackwardSS(eps *tensor.Dense) {
	p := l.peer
	encGradZ := p.SS2HEAs(eps, 1, l.cfg.layout(0)) // ⟦∇Z⟧ under B's key
	phiA := p.HE2SSSend(transposeMul(l.x, encGradZ))
	l.momUA.step(l.UA, phiA, l.cfg.LR)

	gradVBshare := p.HE2SSRecv() // ∇W_B − φ_B
	l.momVB.step(l.VB, gradVBshare, l.cfg.LR)

	l.cfg.sendEncrypted(p, l.VB, 1, 0) // refresh ⟦V_B⟧ at B (V_B now changes too)
	l.encVA = p.RecvMatrix()
	l.x = nil
}

// BackwardSS runs Party B's backward pass given B's derivative share
// ∇Z − ε. Unlike the plaintext-top backward, ∇W_B is computed under A's
// key, so B also only ever holds a masked share of its own gradient.
func (l *MatMulB) BackwardSS(gradShare *tensor.Dense) {
	p := l.peer
	encGradZ := p.SS2HEAs(gradShare, 1, l.cfg.layout(0)) // ⟦∇Z⟧ under A's key

	gradVAshare := p.HE2SSRecv() // ∇W_A − φ_A
	l.momVA.step(l.VA, gradVAshare, l.cfg.LR)

	phiB := p.HE2SSSend(transposeMul(l.x, encGradZ))
	l.momUB.step(l.UB, phiB, l.cfg.LR)

	l.encVB = p.RecvMatrix()
	l.cfg.sendEncrypted(p, l.VA, 1, 0)
	l.x = nil
}
