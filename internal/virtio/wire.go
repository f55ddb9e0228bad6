package virtio

import "github.com/nevesim/neve/internal/wire"

// Wire walks the backend checkpoint.
func (cp *EchoCheckpoint) Wire(c *wire.Codec) {
	wire.U16(c, &cp.lastAvail)
	wire.U32(c, &cp.intStatus)
	wire.U64(c, &cp.processed)
}

// Wire walks the driver checkpoint.
func (cp *DriverCheckpoint) Wire(c *wire.Codec) {
	wire.U16(c, &cp.next)
	wire.U16(c, &cp.lastUsed)
}
