package gic

import "github.com/nevesim/neve/internal/wire"

// Wire walks the distributor checkpoint.
func (cp *DistCheckpoint) Wire(c *wire.Codec) {
	wire.Each(c, cp.enabled[:], wire.Bool)
	wire.Each(c, cp.pending[:], wire.Bool)
	wire.Each(c, cp.active[:], wire.Bool)
	wire.Each(c, cp.route[:], wire.Int)
	wire.U32(c, &cp.ctlr)
}
