package timer

import (
	"cmp"

	"github.com/nevesim/neve/internal/wire"
)

// Wire walks the timer checkpoint: the fired-at map in ascending register
// order, so identical timer state always encodes to identical bytes.
func (cp *TimerCheckpoint) Wire(c *wire.Codec) {
	wire.Map(c, &cp.firedAt, cmp.Compare, wire.U16, wire.U64)
}
