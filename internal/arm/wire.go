package arm

import "github.com/nevesim/neve/internal/wire"

// Wire walks every data field of the checkpoint. The VIRQ sink is wiring
// (a pointer into the owning stack's guest context) and is deliberately
// left alone: decoders start from a checkpoint taken off the live core,
// so the live wiring is preserved and only the data fields are
// overwritten.
func (cp *CPUCheckpoint) Wire(c *wire.Codec) {
	wire.U8(c, &cp.el)
	wire.Int(c, &cp.level)
	wire.Int(c, &cp.guestLevel)
	wire.Words(c, cp.regs[:])
	wire.U64(c, &cp.cycles)
	wire.Words(c, cp.levelCycles[:])
	wire.U64(c, &cp.lastAttributed)
	wire.U64(c, &cp.nv2Val)
	wire.Slice(c, &cp.pendingIRQ, wire.Int)
	wire.Bool(c, &cp.irqMasked)
	wire.Bool(c, &cp.inVIRQ)
}

// Wire walks an Exception (nested stacks persist pending vCPU entries and
// forwarded exits).
func (e *Exception) Wire(c *wire.Codec) {
	wire.U8(c, &e.EC)
	wire.U16(c, &e.Imm)
	wire.U16(c, &e.Reg)
	wire.Bool(c, &e.Write)
	wire.U64(c, &e.Val)
	wire.U64(c, &e.FaultIPA)
	wire.Int(c, &e.Size)
	wire.Int(c, &e.IRQ)
}
