package arm

import "github.com/nevesim/neve/internal/jit"

// This file is the CPU model's side of the trace-JIT layer: cause packing
// for the recorder key, the state walk, and the clock hooks. The dispatch
// itself is inlined into trap() so the interpreted path pays one nil check.

// SetJIT attaches (or detaches, with nil) the trace-JIT engine. The poison
// hook is bound once here so JITPoison costs a nil check when no engine is
// installed, and the core's register file is registered with the engine
// for read/write-set tracking (its accessors notify c.regsTap).
func (c *CPU) SetJIT(j *jit.Engine) {
	c.jit = j
	if j != nil {
		c.jitPoison = j.Poison
		// Re-attaching an engine this core was already registered with
		// (the SMP engine detaches the whole-stack engine for every run)
		// must reuse the existing file ID: registering the same backing
		// array twice would leak IDs and split the read/write sets.
		id := j.FileByBase(&c.regs[0])
		if id == 0 {
			id = j.RegisterFile(c.regs[:])
		}
		c.regsTap = j.Tap(id)
		c.regsFID = id
	} else {
		c.jitPoison = nil
		c.regsTap = nil
		c.regsFID = 0
	}
}

// JITPoison marks the active JIT recording, if any, non-promotable. Model
// code called from trap handlers whose effects the JIT state walk cannot
// express (NEVE page accesses, virtual interrupt delivery into a guest,
// enabled-timer evaluation) calls it.
func (c *CPU) JITPoison() {
	if c.jitPoison != nil {
		c.jitPoison()
	}
}

// PackExc packs an exception into the JIT recorder's trap-cause words.
// Every Exception field participates: two causes with any differing field
// must never share a super-op.
func PackExc(e *Exception, w *[jit.ExcWords]uint64) {
	w0 := uint64(e.EC) | uint64(e.Imm)<<16 | uint64(e.Reg)<<32 | uint64(uint8(e.Size))<<56
	if e.Write {
		w0 |= 1 << 48
	}
	w[0] = w0
	w[1] = e.Val
	w[2] = uint64(e.FaultIPA)
	w[3] = uint64(e.IRQ)
}

// WalkJIT walks the core's replay-relevant state for the engine (the stack
// model wraps it in its own jit.Source together with the hypervisor-side
// state). Excluded, deliberately: cycle accounting (expressed as a
// ClockDelta), the exception pool and depth (scratch private to in-flight
// interpreted traps, which lets a super-op recorded at one nesting depth
// hit at another), the device dispatch tables (fixed at construction), and
// the system register file, which is tracked by read/write set through
// c.regsTap instead of being walked (see SetJIT).
func (c *CPU) WalkJIT(w *jit.W) {
	if c.regsTap == nil {
		// A core the engine does not track cannot have its register reads
		// guarded; no super-op may span it.
		w.Fail()
		return
	}
	// The mode fields pack into one walk word; every field round-trips
	// exactly (ELs and levels are tiny enums).
	pack := uint64(c.el) | uint64(c.level)<<8 | uint64(c.guestLevel)<<16
	if c.irqMasked {
		pack |= 1 << 24
	}
	if c.inVIRQ {
		pack |= 1 << 25
	}
	w.Word(&pack)
	c.el = EL(pack & 0xff)
	c.level = VLevel(pack >> 8 & 0xff)
	c.guestLevel = VLevel(pack >> 16 & 0xff)
	c.irqMasked = pack&(1<<24) != 0
	c.inVIRQ = pack&(1<<25) != 0
	w.Word(&c.nv2Val)
	w.IntSlice(&c.pendingIRQ)
}

// JITClockState snapshots the core's cycle accounting for the engine.
func (c *CPU) JITClockState() jit.ClockState {
	return jit.ClockState{Cycles: c.cycles, Level: c.levelCycles, LastAttributed: c.lastAttributed}
}

// JITClockGap returns cycles since the core's last attribution point: the
// replay guard's clock precondition, without the full snapshot copy.
func (c *CPU) JITClockGap() uint64 { return c.cycles - c.lastAttributed }

// JITAdvanceClock applies a recorded clock delta. Deltas without an
// attribution point (NeedGap false: the core was only charged raw cycles)
// leave the attribution state alone; the others restore the recorded gap,
// which tryReplay guarded.
func (c *CPU) JITAdvanceClock(d jit.ClockDelta) {
	c.cycles += d.DCycles
	if d.NeedGap {
		for i := range d.DLevel {
			c.levelCycles[i] += d.DLevel[i]
		}
		c.lastAttributed = c.cycles - d.PostGap
	}
}

// recordedHandle runs the EL2 vector under an active JIT recording. The
// deferred abort keeps a panicking handler (fault injection, watchdog, a
// modeled crash) from leaving a half-captured recording armed; the defer
// cost is paid only on this rare path, never on plain interpreted traps.
func (c *CPU) recordedHandle(j *jit.Engine, e *Exception) uint64 {
	done := false
	defer func() {
		if !done {
			j.AbortRecord()
		}
	}()
	v := c.Vector.HandleTrap(c, e)
	j.EndRecord(v)
	done = true
	return v
}
