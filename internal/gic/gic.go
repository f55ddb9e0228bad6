// Package gic models the ARM Generic Interrupt Controller as used for
// interrupt virtualization (paper Sections 2 and 4): a distributor routing
// physical interrupts to cores, and the virtual CPU interface through which
// VMs acknowledge and complete virtual interrupts without trapping. The
// hypervisor control interface (ICH_* registers, Table 5) lives in the CPU
// system register file; this package gives it device semantics.
//
// The model exposes the GICv3 system-register programming interface; the
// paper's hardware had a memory-mapped GICv2, but "the programming
// interfaces for both GIC versions are almost identical" (Section 7) and
// the trap behavior relevant to nested virtualization is the same.
package gic

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/mem"
)

// Interrupt ID spaces.
const (
	// SGIs (software generated / inter-processor) are 0-15.
	MaxSGI = 15
	// PPIs (per-core private) are 16-31.
	MinPPI = 16
	MaxPPI = 31
	// SPIs (shared peripherals) are 32 and up.
	MinSPI = 32
	// NumINTIDs bounds the modeled interrupt space.
	NumINTIDs = 1024

	// MaintenanceINTID is the PPI the virtual interface raises for
	// maintenance conditions (underflow).
	MaintenanceINTID = 25
	// VTimerINTID is the EL1 virtual timer PPI.
	VTimerINTID = 27
	// HypTimerINTID is the EL2 physical timer PPI.
	HypTimerINTID = 26
)

// Distributor MMIO window. Guest accesses fault in Stage-2 and are
// emulated by the hypervisor's virtual distributor; host accesses reach
// this physical model through the bus.
const (
	DistBase mem.Addr = 0x0800_0000
	DistSize uint64   = 0x1_0000

	// Register offsets (subset of the GICv2/v3 distributor map).
	RegCTLR      = 0x000
	RegISENABLER = 0x100 // set-enable, 32 interrupts per word
	RegICENABLER = 0x180 // clear-enable
	RegISPENDR   = 0x200 // set-pending
	RegSGIR      = 0xF00 // GICv2-style SGI trigger, modeled for guests
)

// Target is where the distributor delivers a routed interrupt: the CPU
// model's pending-interrupt input.
type Target interface {
	AssertIRQ(intid int)
}

// Dist is the physical distributor.
type Dist struct {
	targets []Target

	// bits holds the enabled/pending/active state (indexed by wEnabled,
	// wPending, wActive) of interrupts at or above jitINTIDs; below it
	// the packed words in w are the only copy. Every access goes through
	// bit/setBit (see jit.go).
	bits [3][NumINTIDs]bool
	// w is the trace-JIT-tracked file (the w* indices in jit.go).
	w  [numWords]uint64
	jt *jit.FileTap
	// route is the target core for SPIs.
	route [NumINTIDs]int

	// gen counts mutations the tracked words do not express: routing
	// changes, interrupt IDs at or above jitINTIDs, and bulk
	// reconfiguration. It is part of the trace-JIT's structural
	// generation, so bumping it invalidates every compiled super-op.
	gen uint64
}

// NewDist returns a distributor delivering to the given cores.
func NewDist(targets ...Target) *Dist {
	d := &Dist{targets: targets}
	return d
}

// AddTarget appends a core (used while wiring a machine).
func (d *Dist) AddTarget(t Target) { d.targets = append(d.targets, t) }

// EnableAll enables every interrupt, the common post-boot configuration of
// the modeled workloads.
func (d *Dist) EnableAll() {
	for i := range d.bits[wEnabled] {
		d.bits[wEnabled][i] = true
	}
	d.w[wEnabled] = ^uint64(0)
	d.w[wCTLR] = 1
	d.gen++
}

// Enable enables one interrupt.
func (d *Dist) Enable(intid int) {
	d.setBit(wEnabled, d.check(intid), true)
}

// Route sets the target core of an SPI.
func (d *Dist) Route(intid, cpu int) {
	if intid < MinSPI {
		panic(fmt.Sprintf("gic: Route of non-SPI %d", intid))
	}
	d.route[d.check(intid)] = cpu
	d.gen++
}

func (d *Dist) check(intid int) int {
	if intid < 0 || intid >= NumINTIDs {
		panic(fmt.Sprintf("gic: interrupt ID %d out of range", intid))
	}
	return intid
}

// AssertSPI raises a shared peripheral interrupt and routes it. Interrupts
// are modeled edge/message-signaled: each assertion of an enabled interrupt
// is delivered to the target core; assertions of disabled interrupts are
// latched pending.
func (d *Dist) AssertSPI(intid int) {
	d.check(intid)
	if intid < MinSPI {
		panic(fmt.Sprintf("gic: AssertSPI of non-SPI %d", intid))
	}
	// Enabled, not latched: the common post-boot case. Deliver without
	// touching distributor state at all — the transient pending set/clear
	// nets out, and skipping touch() keeps concurrent in-segment
	// self-delivery (a core asserting its own timer or device interrupt)
	// free of writes to shared words; only the target core's tracked
	// pending queue mutates.
	if d.bit(wEnabled, intid) && !d.bit(wPending, intid) {
		d.deliver(d.route[intid], intid)
		return
	}
	if !d.bit(wEnabled, intid) {
		d.setBit(wPending, intid, true)
		return
	}
	d.setBit(wPending, intid, true)
	d.deliver(d.route[intid], intid)
	d.setBit(wPending, intid, false)
}

// AssertPPI raises a private interrupt on one core (edge semantics, as
// AssertSPI).
func (d *Dist) AssertPPI(cpu, intid int) {
	d.check(intid)
	// Mutation-free fast path; see AssertSPI.
	if d.bit(wEnabled, intid) && !d.bit(wPending, intid) {
		d.deliver(cpu, intid)
		return
	}
	if !d.bit(wEnabled, intid) {
		d.setBit(wPending, intid, true)
		return
	}
	d.setBit(wPending, intid, true)
	d.deliver(cpu, intid)
	d.setBit(wPending, intid, false)
}

// SendSGI raises a software-generated interrupt on the target core: the
// physical inter-processor interrupt used by hypervisors to kick vCPUs.
func (d *Dist) SendSGI(targetCPU, intid int) {
	if intid > MaxSGI {
		panic(fmt.Sprintf("gic: SendSGI of non-SGI %d", intid))
	}
	d.setBit(wPending, intid, true)
	d.deliver(targetCPU, intid)
}

func (d *Dist) deliver(cpu, intid int) {
	if cpu < 0 || cpu >= len(d.targets) {
		panic(fmt.Sprintf("gic: no core %d for interrupt %d", cpu, intid))
	}
	d.targets[cpu].AssertIRQ(intid)
}

// Activate marks a delivered interrupt active (ack by the hypervisor).
func (d *Dist) Activate(intid int) {
	d.check(intid)
	d.setBit(wPending, intid, false)
	d.setBit(wActive, intid, true)
}

// Deactivate completes a physical interrupt. The virtual CPU interface
// calls it when a guest EOIs a hardware-linked list register entry,
// completing the physical interrupt directly without trapping (the Virtual
// EOI path of Table 1).
func (d *Dist) Deactivate(intid int) {
	d.check(intid)
	d.setBit(wActive, intid, false)
}

// IsPending reports whether an interrupt is pending (tests, diagnostics).
func (d *Dist) IsPending(intid int) bool { return d.bit(wPending, d.check(intid)) }

// IsActive reports whether an interrupt is active.
func (d *Dist) IsActive(intid int) bool { return d.bit(wActive, d.check(intid)) }

// Access implements the host-side MMIO window (arm.PhysBus is wired through
// the machine's bus, which dispatches by address range).
func (d *Dist) Access(c *arm.CPU, pa mem.Addr, write bool, size int, val *uint64) bool {
	if pa < DistBase || uint64(pa-DistBase) >= DistSize {
		return false
	}
	off := uint64(pa - DistBase)
	if !write {
		switch off {
		case RegCTLR:
			d.jt.Read(wCTLR)
			*val = uint64(uint32(d.w[wCTLR]))
		default:
			*val = 0
		}
		return true
	}
	switch {
	case off == RegCTLR:
		d.jt.Write(wCTLR)
		d.w[wCTLR] = uint64(uint32(*val))
	case off == RegSGIR:
		// GICv2 SGIR format (simplified): target core in [23:16],
		// interrupt ID in [3:0].
		d.SendSGI(int(*val>>16&0xff), int(*val&0xf))
	case off >= RegISENABLER && off < RegISENABLER+NumINTIDs/8:
		base := int(off-RegISENABLER) * 8
		for b := 0; b < 32 && base+b < NumINTIDs; b++ {
			if *val&(1<<uint(b)) != 0 {
				d.setBit(wEnabled, base+b, true)
			}
		}
	case off >= RegICENABLER && off < RegICENABLER+NumINTIDs/8:
		base := int(off-RegICENABLER) * 8
		for b := 0; b < 32 && base+b < NumINTIDs; b++ {
			if *val&(1<<uint(b)) != 0 {
				d.setBit(wEnabled, base+b, false)
			}
		}
	}
	return true
}
