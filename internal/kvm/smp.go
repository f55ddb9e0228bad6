package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/timer"
)

// SMP execution: the benchmark configurations run multi-way SMP guests
// (paper Section 5). Each vCPU's guest program runs on its own goroutine
// under the epoch-lockstep engine (epoch.go): per-vCPU segments execute
// independently — in parallel when SMPOptions.Parallel is set — and all
// shared-state effects merge at epoch barriers in vCPU order, so the
// interleaving is deterministic and mode-independent.

// SMPGuest is the guest context handed to SMP programs. Per-vCPU
// operations (Work, Hypercall, device emulation below the virtio window)
// run inside the current epoch segment; shared-state operations (IPIs,
// guest RAM, real virtio registers) are queued or parked and merged at the
// epoch barrier.
type SMPGuest struct {
	*GuestCtx
	eng *smpEngine
	id  int
	// segStart is the vCPU's cycle count at the start of the current
	// epoch segment; the budget check measures against it.
	segStart uint64
}

// ID returns the vCPU index.
func (g *SMPGuest) ID() int { return g.id }

// park hands control to the coordinator and, once resumed, opens the next
// epoch segment.
func (g *SMPGuest) park(p smpPark) {
	g.eng.park(g.id, p)
	g.segStart = g.CPU.Cycles()
}

// maybeEpoch parks at the epoch barrier once the segment budget expires.
func (g *SMPGuest) maybeEpoch() {
	if g.CPU.Cycles()-g.segStart >= g.eng.budget {
		g.park(smpPark{kind: parkEpoch})
	}
}

// Yield ends the vCPU's epoch segment immediately (cooperative yield).
func (g *SMPGuest) Yield() { g.park(smpPark{kind: parkEpoch}) }

// Work burns guest cycles and services interrupts, parking at the epoch
// barrier when the segment budget expires.
func (g *SMPGuest) Work(n uint64) {
	g.GuestCtx.Work(n)
	// Evaluate the core's generic timer so deadlines armed by ArmTimer
	// fire at their programmed instant. With no line enabled (every
	// non-storm workload) this reads four disabled control registers and
	// does nothing — no cycles, no JIT poison, no shared state.
	g.eng.s.M.Timers[g.CPU.ID].Check(g.CPU)
	g.maybeEpoch()
}

// ArmTimer programs the vCPU's EL1 virtual timer to fire delta cycles
// from now: the CNTV_CVAL_EL0/CNTV_CTL_EL0 MSR pair of a guest timer
// tick loop. The registers are claimed by the per-core timer block, so
// the writes complete without trapping (as on hardware); the expiry
// interrupt is a PPI delivered and serviced entirely on this core.
func (g *SMPGuest) ArmTimer(delta uint64) {
	c := g.CPU
	now := c.Cycles() - c.Reg(arm.CNTVOFF_EL2)
	c.MSR(arm.CNTV_CVAL_EL0, now+delta)
	c.MSR(arm.CNTV_CTL_EL0, timer.CtlEnable)
	g.maybeEpoch()
}

// DeviceKick pokes the generic emulated device's doorbell (a per-vCPU
// register below the virtio window, so the trap runs in-segment) and has
// the device raise its completion interrupt — a private interrupt on the
// issuing core, emulated by the hypervisor like any device IRQ.
func (g *SMPGuest) DeviceKick() {
	g.GuestCtx.DeviceWrite(0x40, 1)
	g.eng.s.M.Dist.AssertPPI(g.CPU.ID, DevicePPI)
	g.maybeEpoch()
}

// Hypercall issues a null hypercall on the vCPU's own trap path.
func (g *SMPGuest) Hypercall() {
	g.GuestCtx.Hypercall()
	g.maybeEpoch()
}

// SendIPI queues SGI intid to another vCPU. The distributor transaction
// (the trapping ICC_SGI1R_EL1 write, with its full emulation cost) replays
// at the epoch barrier, where concurrent senders serialize and pay the
// distributor contention penalty.
func (g *SMPGuest) SendIPI(target, intid int) {
	if intid > MaxGuestSGI {
		panic(fmt.Sprintf("kvm: guest SGI %d out of range", intid))
	}
	g.eng.queueIPI(g.id, target, intid)
}

// RAMRead64 reads shared guest RAM; the access runs at the epoch barrier.
func (g *SMPGuest) RAMRead64(off uint64) uint64 {
	var v uint64
	g.park(smpPark{kind: parkBarrier, op: func() { v = g.GuestCtx.RAMRead64(off) }})
	return v
}

// RAMWrite64 writes shared guest RAM; the access runs at the epoch barrier.
func (g *SMPGuest) RAMWrite64(off uint64, v uint64) {
	g.park(smpPark{kind: parkBarrier, op: func() { g.GuestCtx.RAMWrite64(off, v) }})
}

// DeviceRead reads an emulated device register. The generic emulated
// device (offsets below VirtioRegOff) is per-vCPU and runs in-segment; the
// real virtio-mmio device behind it is shared VM state and runs at the
// epoch barrier.
func (g *SMPGuest) DeviceRead(off uint64) uint64 {
	if off < VirtioRegOff {
		return g.GuestCtx.DeviceRead(off)
	}
	var v uint64
	g.park(smpPark{kind: parkBarrier, op: func() { v = g.GuestCtx.DeviceRead(off) }})
	return v
}

// DeviceWrite writes an emulated device register (see DeviceRead for the
// in-segment/at-barrier split).
func (g *SMPGuest) DeviceWrite(off uint64, v uint64) {
	if off < VirtioRegOff {
		g.GuestCtx.DeviceWrite(off, v)
		return
	}
	g.park(smpPark{kind: parkBarrier, op: func() { g.GuestCtx.DeviceWrite(off, v) }})
}

// RunSMP runs one program per vCPU of the innermost VM, interleaved
// deterministically in strict round-robin: sequential epochs of budget 1,
// so every Work/Yield is a scheduling boundary (the engine's legacy mode).
func (s *Stack) RunSMP(programs []func(g *SMPGuest)) {
	s.RunSMPOpts(programs, SMPOptions{EpochBudget: 1})
}

// runOn enters vCPU i's innermost guest on its own core and runs fn.
func (s *Stack) runOn(i int, fn func(g *GuestCtx)) {
	if i == 0 {
		s.RunGuest(0, fn)
		return
	}
	// Secondary vCPUs: load the context chain and run.
	if s.GuestHyp != nil {
		lv := s.VM.VCPUs[i]
		nv := lv.nestedVCPU()
		s.GuestHyp.cur(lv.PCPU).load(nv, modeGuestOS)
		s.Host.loadNestedState(lv.PCPU, lv)
		s.Host.enterSwitch(lv.PCPU, lv, modeNested)
		lv.PCPU.RunGuest(arm.VLevel(2), func() { fn(nv.Guest) })
		s.Host.exitSwitchCold(lv.PCPU, lv)
		return
	}
	v := s.VM.VCPUs[i]
	s.Host.RunGuestOS(v, fn)
}
