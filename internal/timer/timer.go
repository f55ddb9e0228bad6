// Package timer models the ARM generic timers: the EL1 virtual and physical
// timers every guest uses, and the EL2 hypervisor timers, including the
// extra EL2 virtual timer that VHE adds (CNTHV). The EL2 timers are the one
// register class NEVE cannot defer — reads must observe hardware-updated
// counter values, so all accesses trap (paper Section 6.1) — which is why a
// VHE guest hypervisor traps on timer programming where a non-VHE one does
// not (Section 7.1).
package timer

import (
	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/gic"
)

// Timer control register bits.
const (
	CtlEnable uint64 = 1 << 0
	CtlIMask  uint64 = 1 << 1
	CtlIStat  uint64 = 1 << 2
)

// Timer is the per-core generic timer block. Counter values derive from the
// core's cycle counter; control and compare registers live in the core's
// system register file (the device only adds counter semantics and firing).
type Timer struct {
	Dist *gic.Dist
	// firedAt records, per timer line (indexed like lines), the compare
	// value that last raised the interrupt, valid where fired is set: each
	// programmed deadline asserts once, surviving the hypervisor's
	// transient disable/re-enable across world switches. Reprogramming
	// the compare value rearms the line.
	firedAt [numLines]uint64
	fired   [numLines]bool
}

// New returns a timer block delivering through d.
func New(d *gic.Dist) *Timer {
	return &Timer{Dist: d}
}

var (
	_ arm.SysRegDevice  = (*Timer)(nil)
	_ arm.SysRegClaimer = (*Timer)(nil)
)

// SysRegClaims implements arm.SysRegClaimer: the registers the timer block
// intercepts, so the CPU routes only those accesses here.
func (t *Timer) SysRegClaims() []arm.SysReg {
	return []arm.SysReg{
		arm.CNTPCT_EL0, arm.CNTVCT_EL0,
		arm.CNTP_CTL_EL0, arm.CNTP_CVAL_EL0,
		arm.CNTV_CTL_EL0, arm.CNTV_CVAL_EL0,
		arm.CNTHP_CTL_EL2, arm.CNTHP_CVAL_EL2,
		arm.CNTHV_CTL_EL2, arm.CNTHV_CVAL_EL2,
		arm.CNTVOFF_EL2, arm.CNTHCTL_EL2,
	}
}

// SysRegRead implements arm.SysRegDevice: counter reads compute from the
// cycle clock; everything else falls through to register storage.
func (t *Timer) SysRegRead(c *arm.CPU, r arm.SysReg) (uint64, bool) {
	switch r {
	case arm.CNTPCT_EL0:
		// Counter reads observe the live clock, which a super-op replay
		// cannot reproduce: poison any active JIT recording.
		c.JITPoison()
		return c.Cycles(), true
	case arm.CNTVCT_EL0:
		c.JITPoison()
		return c.Cycles() - c.Reg(arm.CNTVOFF_EL2), true
	}
	return 0, false
}

// SysRegWrite implements arm.SysRegDevice. Writes that change timer
// programming re-evaluate firing; storage is shared with the register file.
func (t *Timer) SysRegWrite(c *arm.CPU, r arm.SysReg, v uint64) bool {
	switch r {
	case arm.CNTP_CTL_EL0, arm.CNTP_CVAL_EL0,
		arm.CNTV_CTL_EL0, arm.CNTV_CVAL_EL0,
		arm.CNTHP_CTL_EL2, arm.CNTHP_CVAL_EL2,
		arm.CNTHV_CTL_EL2, arm.CNTHV_CVAL_EL2,
		arm.CNTVOFF_EL2, arm.CNTHCTL_EL2:
		c.SetReg(r, v)
		t.Check(c)
		return true
	}
	return false
}

type timerLine struct {
	ctl, cval arm.SysReg
	virtual   bool // subject to CNTVOFF
	intid     int
}

const numLines = 4

var lines = [numLines]timerLine{
	{arm.CNTV_CTL_EL0, arm.CNTV_CVAL_EL0, true, gic.VTimerINTID},
	{arm.CNTP_CTL_EL0, arm.CNTP_CVAL_EL0, false, 30},
	{arm.CNTHP_CTL_EL2, arm.CNTHP_CVAL_EL2, false, gic.HypTimerINTID},
	{arm.CNTHV_CTL_EL2, arm.CNTHV_CVAL_EL2, false, 28},
}

// Check evaluates all timer lines against the current counter and asserts
// expired, unmasked timers as PPIs on the core. The machine calls it at
// synchronization points.
//
// Under a JIT recording a disabled line is guarded by its control
// register alone: its compare value and CNTVOFF cannot influence the
// outcome, so they are not read. An enabled line's outcome depends on the
// live counter, which no guard pins, so evaluating one poisons the
// recording. A disabled line whose status bit is already clear is left
// alone: rewriting the same value would change nothing.
func (t *Timer) Check(c *arm.CPU) {
	for li := range lines {
		l := &lines[li]
		ctl := c.Reg(l.ctl)
		if ctl&CtlEnable == 0 {
			if ctl&CtlIStat != 0 {
				c.SetReg(l.ctl, ctl&^CtlIStat)
			}
			continue
		}
		c.JITPoison()
		cnt := c.Cycles()
		if l.virtual {
			cnt -= c.Reg(arm.CNTVOFF_EL2)
		}
		cval := c.Reg(l.cval)
		if cnt < cval {
			c.SetReg(l.ctl, ctl&^CtlIStat)
			continue
		}
		c.SetReg(l.ctl, ctl|CtlIStat)
		if ctl&CtlIMask == 0 && (!t.fired[li] || t.firedAt[li] != cval) {
			t.firedAt[li], t.fired[li] = cval, true
			if t.Dist != nil {
				t.Dist.AssertPPI(c.ID, l.intid)
			}
		}
	}
}
