package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
)

// PSCI: the Power State Coordination Interface guests use to manage vCPU
// lifecycle, implemented as hypercalls (KVM's PSCI emulation). The hvc
// immediates below stand in for the PSCI function IDs passed in x0.
const (
	// immPSCIVersion is PSCI_VERSION.
	immPSCIVersion uint16 = 0x084
	// immPSCICPUOn is CPU_ON: the payload (target vCPU) travels in the
	// virtual x1, modeled through the vcpu's x0 slot.
	immPSCICPUOn uint16 = 0x0c4
	// immPSCICPUOff is CPU_OFF for the calling vCPU.
	immPSCICPUOff uint16 = 0x085
)

// PSCIVersionValue is the implemented PSCI revision (1.0).
const PSCIVersionValue = 0x0001_0000

// PSCI return codes.
const (
	PSCISuccess       = 0
	PSCIInvalidParams = ^uint64(1) + 1 // -2 two's complement
	PSCIAlreadyOn     = ^uint64(3) + 1 // -4
)

// PSCIVersion queries the hypervisor's PSCI revision.
func (g *GuestCtx) PSCIVersion() uint64 {
	return g.CPU.HVC(immPSCIVersion)
}

// CPUOn asks the hypervisor to power on another vCPU of the same VM.
func (g *GuestCtx) CPUOn(target int) uint64 {
	g.VCPU.setX0(uint64(target))
	return g.CPU.HVC(immPSCICPUOn)
}

// CPUOff powers off the calling vCPU (modeled as a hypervisor-side state
// change; the workload returns afterwards).
func (g *GuestCtx) CPUOff() uint64 {
	return g.CPU.HVC(immPSCICPUOff)
}

// handlePSCI services the PSCI hypercalls. It returns (value, true) when
// the immediate is a PSCI function. The result also lands in the calling
// vCPU's virtual x0 so it survives exit forwarding.
func (h *Hypervisor) handlePSCI(c *arm.CPU, lc loadedCtx, imm uint16) (uint64, bool) {
	v := lc.vcpu()
	ret := func(val uint64) (uint64, bool) { return v.setX0(val), true }
	switch imm {
	case immPSCIVersion:
		c.Work(workHypercall)
		return ret(PSCIVersionValue)
	case immPSCICPUOn:
		c.Work(workPSCIOn)
		target := int(v.x0())
		if target < 0 || target >= len(v.VM.VCPUs) {
			return ret(PSCIInvalidParams)
		}
		tv := v.VM.VCPUs[target]
		if tv.Online() {
			return ret(PSCIAlreadyOn)
		}
		h.powerOn(tv)
		return ret(PSCISuccess)
	case immPSCICPUOff:
		c.Work(workHypercall)
		v.st.set(vcOnline, 0)
		return ret(PSCISuccess)
	default:
		return 0, false
	}
}

// powerOn brings a vCPU online. The host hypervisor loads the right
// context chain onto the target core; a guest hypervisor's power-on is a
// virtual state change its parent materializes the same way at the next
// entry (the modeled stacks pin contexts, so the load is immediate).
func (h *Hypervisor) powerOn(tv *VCPU) {
	tv.st.set(vcOnline, 1)
	if !h.IsHost() {
		// The guest hypervisor marks its vCPU runnable; the physical
		// context chain for that core is the host's business.
		return
	}
	if h.cur(tv.PCPU).vcpu() != nil {
		return // core already carries a context
	}
	if tv.VM.GuestHyp != nil {
		h.PreparePeerNested(tv)
		return
	}
	h.PreparePeerVM(tv)
}

const workPSCIOn = 900

func init() {
	// The PSCI immediates must not collide with the model's other hvc
	// uses (paravirtualization sets bit 15; the lowvisor call is 0x7f1).
	for _, imm := range []uint16{immPSCIVersion, immPSCICPUOn, immPSCICPUOff} {
		if imm == immNullHypercall || imm == immSelfHyp || imm&0x8000 != 0 {
			panic(fmt.Sprintf("kvm: PSCI immediate %#x collides", imm))
		}
	}
}
