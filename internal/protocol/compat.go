package protocol

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
)

// Names the frozen benchmark pins (benchmark/drive.go lists them) from when
// every conversion had a streamed and a packed twin. They exist only so that
// the benchmark builds unchanged; nothing else in the tree may call them, and
// they go at the benchmark's next re-record.

func (p *Peer) HE2SSSendStream(c *hetensor.Matrix) *tensor.Dense       { return p.HE2SSSend(c) }
func (p *Peer) HE2SSRecvStream() *tensor.Dense                         { return p.HE2SSRecv() }
func (p *Peer) HE2SSSendPackedStream(c *hetensor.Matrix) *tensor.Dense { return p.HE2SSSend(c) }
func (p *Peer) HE2SSRecvPackedStream() *tensor.Dense                   { return p.HE2SSRecv() }

// SS2HE and SS2HEStream are SS2HEAs with both pieces one value per ciphertext.
func (p *Peer) SS2HE(piece *tensor.Dense, scale uint) *hetensor.Matrix {
	return p.SS2HEAs(piece, scale, hetensor.Layout{})
}

func (p *Peer) SS2HEStream(piece *tensor.Dense, scale uint) *hetensor.Matrix {
	return p.SS2HE(piece, scale)
}
