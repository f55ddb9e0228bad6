package arm

// CPUCheckpoint captures a core's mutable execution state: exception
// level, virtualization levels, the full system register file, cycle
// counters and their per-level attribution, the NEVE staging slot, and
// pending-interrupt state. Fixed wiring (memory, cost model, devices,
// vector, hooks) and the transient exception pool (empty whenever the
// core is quiescent at EL2) are not captured.
type CPUCheckpoint struct {
	el             EL
	level          VLevel
	guestLevel     VLevel
	regs           [NumSysRegs]uint64
	cycles         uint64
	levelCycles    [8]uint64
	lastAttributed uint64
	nv2Val         uint64
	pendingIRQ     []int
	irqMasked      bool
	inVIRQ         bool
	virq           VIRQSink
}

// Checkpoint captures the core state. The core must be quiescent — not
// inside a trap handler — which is the case whenever the model is not
// executing (the harness checkpoints between runs).
func (c *CPU) Checkpoint() *CPUCheckpoint {
	if c.excDepth != 0 {
		panic("arm: Checkpoint inside a trap handler")
	}
	cp := &CPUCheckpoint{
		el:             EL(c.st[stEL]),
		level:          VLevel(c.st[stLevel]),
		guestLevel:     VLevel(c.st[stGuestLevel]),
		regs:           c.regs,
		cycles:         c.cycles,
		levelCycles:    c.levelCycles,
		lastAttributed: c.lastAttributed,
		nv2Val:         c.st[stNV2Val],
		irqMasked:      c.st[stIRQMasked] != 0,
		inVIRQ:         c.st[stInVIRQ] != 0,
		virq:           c.VIRQ(),
	}
	if len(c.pendingIRQ) > 0 {
		cp.pendingIRQ = append([]int(nil), c.pendingIRQ...)
	}
	return cp
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Restore returns the core to a checkpointed state.
func (c *CPU) Restore(cp *CPUCheckpoint) {
	c.st[stEL] = uint64(cp.el)
	c.st[stLevel] = uint64(cp.level)
	c.st[stGuestLevel] = uint64(cp.guestLevel)
	c.regs = cp.regs
	c.cycles = cp.cycles
	c.levelCycles = cp.levelCycles
	c.lastAttributed = cp.lastAttributed
	c.st[stNV2Val] = cp.nv2Val
	c.pendingIRQ = append(c.pendingIRQ[:0], cp.pendingIRQ...)
	c.st[stIRQMasked] = b2u(cp.irqMasked)
	c.st[stInVIRQ] = b2u(cp.inVIRQ)
	c.SetVIRQ(cp.virq)
	c.excDepth = 0
	c.markDepth = 0
}
