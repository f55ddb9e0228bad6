package mmu

import "github.com/nevesim/neve/internal/wire"

// Wire walks the tree bookkeeping.
func (cp *TablesCheckpoint) Wire(c *wire.Codec) {
	wire.U64(c, &cp.root)
	wire.Int(c, &cp.pages)
}

// Wire walks the TLB checkpoint.
func (cp *TLBCheckpoint) Wire(c *wire.Codec) {
	wire.Slice(c, &cp.slots, wire.Struct)
	wire.Slice(c, &cp.next, wire.U16)
	wire.Int(c, &cp.live)
	wire.U64(c, &cp.hits)
	wire.U64(c, &cp.misses)
}

// Wire walks one TLB entry.
func (s *tlbSlot) Wire(c *wire.Codec) {
	wire.Bool(c, &s.valid)
	wire.U16(c, &s.vmid)
	wire.U64(c, &s.iaPage)
	wire.U64(c, &s.oaPage)
	wire.U8(c, &s.perm)
}

// Wire walks the Stage-2 MMU checkpoint.
func (cp *Stage2Checkpoint) Wire(c *wire.Codec) { cp.tlb.Wire(c) }
