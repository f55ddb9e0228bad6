package arm

import "github.com/nevesim/neve/internal/jit"

// This file is the CPU model's side of the trace-JIT layer: cause packing
// for the recorder key, the tracked mode words, and the clock hooks. The
// dispatch itself is inlined into trap() so the interpreted path pays one
// nil check.

// Mode word indices into CPU.st. regs is already maxFileWords long, so the
// mode words are a file of their own. Each word is one field, so no setter
// is a read-modify-write.
const (
	stEL = iota
	stLevel
	stGuestLevel
	stIRQMasked
	stInVIRQ
	stNV2Val
	// stVIRQ indexes CPU.sinks (0 is no sink); the table is append-only,
	// so a replayed index stays valid.
	stVIRQ
	numStWords
)

func (c *CPU) get(i int) uint64 {
	c.stTap.Read(i)
	return c.st[i]
}

func (c *CPU) set(i int, v uint64) {
	c.stTap.Write(i)
	c.st[i] = v
}

// SetJIT attaches (or detaches, with nil) the trace-JIT engine. The poison
// hook is bound once here so JITPoison costs a nil check when no engine is
// installed, and the core's register file, mode words and pending-IRQ
// queue are registered for tracking. Registration is idempotent, so
// re-attaching (SMP runs detach the engine) reuses the existing IDs.
func (c *CPU) SetJIT(j *jit.Engine) {
	c.jit = j
	if j == nil {
		c.jitPoison, c.regsTap, c.regsFID, c.stTap, c.irqTap = nil, nil, 0, nil, nil
		return
	}
	c.jitPoison = j.Poison
	c.regsFID = j.RegisterFile(c.regs[:])
	c.regsTap = j.Tap(c.regsFID)
	c.stTap = j.Tap(j.RegisterFile(c.st[:]))
	c.irqTap = j.RegisterQueue(&c.pendingIRQ)
}

// JITPoison marks the active JIT recording, if any, non-promotable. Model
// code called from trap handlers whose effects no tracked word can
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
func (c *CPU) JITAdvanceClock(d *jit.ClockDelta) {
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
