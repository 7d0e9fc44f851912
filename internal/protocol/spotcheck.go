// Run-integrity checks at the protocol trust boundary.
//
// Two layers guard a received ciphertext. Vetting (Peer.trusted, through
// hetensor.Matrix.Trust) runs on every chunk of every transfer: each
// ciphertext must be present, in-range mod N² and invertible — the structural
// validity any honest sender guarantees, so a violation is transport
// corruption or a malicious peer and surfaces as a typed transport.ErrCorrupt
// instead of a deep panic inside the homomorphic kernels.
//
// The decrypt spot-check (Peer.SpotCheck, engine option "spotcheck") is the
// opt-in probabilistic second layer at the label party: inside a sampled
// HE2SS decryption (one conversion in spotEvery, starting with the first)
// it re-decrypts one derived row through the exact-integer path
// (hetensor.Matrix.VerifyRow) and checks (a) the signed plaintext fits the
// fixed-point range a legitimate protocol value can occupy — a corrupted
// ciphertext decrypts to an essentially uniform ring element, detected with
// overwhelming probability — and (b) the integer decodes to exactly the float
// the bulk decryption produced. Outcomes are counted in StreamStats
// (SpotChecks/SpotMismatches); the serving layer surfaces its own counters in
// serve.Stats.
//
// The spot row is derived from a per-peer ordinal via internal/rng, not drawn
// from Peer.Rng: the mask streams of the two parties must stay in lockstep,
// and an opt-in check that consumed mask randomness would desynchronize them.
package protocol

import "blindfl/internal/rng"

// spotEvery is the sampling period: one in spotEvery HE2SS conversions gets
// the exact-integer re-verification. Checking every conversion would cost an
// extra decrypt each (~12% on the packed fed-step bench, whose bulk
// decryption is only a handful of lane groups); sampling keeps the probe
// under the 5% budget while a long run still covers every conversion site.
const spotEvery = 4

// spotSample advances the spot ordinal and reports whether this conversion
// is in the sample — every spotEvery-th candidate, starting with the first,
// so any run with at least one conversion performs at least one check.
func (p *Peer) spotSample() bool {
	p.spotSeq++
	return (p.spotSeq-1)%spotEvery == 0
}

// spotRow derives the spot-check row for a rows-tall matrix from the peer's
// current check ordinal — reproducible, and independent of the mask streams.
func (p *Peer) spotRow(rows int) int {
	return int(uint64(rng.Derive(int64(p.spotSeq), "spot-check-row")) % uint64(rows))
}
