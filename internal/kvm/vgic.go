package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
)

// The hypervisor's virtual distributor: software interrupt state per vCPU,
// flushed into list registers on guest entry. For the host hypervisor the
// list registers are hardware; for a guest hypervisor the writes trap and
// become shadow copies the host sanitizes (Section 4, interrupt
// virtualization).

// vgicSendSGI emulates a guest's ICC_SGI1R_EL1 write: mark the SGI pending
// on the target vCPU and kick the physical core it runs on.
func (h *Hypervisor) vgicSendSGI(c *arm.CPU, vm *VM, target, intid int) {
	c.Work(workVGICEmu)
	if target < 0 || target >= len(vm.VCPUs) {
		panic(fmt.Sprintf("kvm[%s]: SGI to nonexistent vcpu %d", h.Cfg.Name, target))
	}
	tv := vm.VCPUs[target]
	tv.pendingVIRQ = append(tv.pendingVIRQ, intid)
	h.kick(c, tv)
}

// kick prods the physical core running vcpu tv so it exits its guest and
// lets the hypervisor flush pending virtual interrupts. The host uses a
// real SGI through the distributor; a guest hypervisor's kick is an
// ICC_SGI1R write that traps to its parent.
func (h *Hypervisor) kick(c *arm.CPU, tv *VCPU) {
	if tv.PCPU == c {
		// Same core: the interrupt will be flushed on the next entry.
		return
	}
	if h.IsHost() {
		c.AddCycles(c.Cost.MMIO) // distributor access
		h.M.Dist.SendSGI(tv.PCPU.ID, KickSGI)
		tv.PCPU.AddCycles(c.Cost.IPIWire)
		return
	}
	c.MSR(arm.ICC_SGI1R_EL1, uint64(tv.PCPU.ID)<<16|uint64(KickSGI))
}

// injectVIRQ queues a virtual interrupt for a vCPU of one of this
// hypervisor's VMs.
func (h *Hypervisor) injectVIRQ(v *VCPU, intid int) {
	v.pendingVIRQ = append(v.pendingVIRQ, intid)
}

// flushPendingVIRQ moves software-pending interrupts into the vCPU's saved
// list register slots; the world switch writes them to the (hardware or
// shadow) list registers on entry.
func (h *Hypervisor) flushPendingVIRQ(v *VCPU) {
	free := 0
	for len(v.pendingVIRQ) > 0 && free < usedLRs {
		lr := v.EL1.Get(arm.ICHLR(free))
		if arm.LRStateOf(lr) != arm.LRStateInvalid {
			free++
			continue
		}
		intid := v.pendingVIRQ[0]
		v.pendingVIRQ = v.pendingVIRQ[1:]
		v.EL1.Set(arm.ICHLR(free), arm.MakeLR(intid, -1))
		if free+1 > v.dirtyLRs {
			v.dirtyLRs = free + 1
		}
		free++
	}
	v.EL1.Set(arm.ICH_VMCR_EL2, v.EL1.Get(arm.ICH_VMCR_EL2)|1)
}

// routeIRQToVM decides what a physical interrupt taken while a VM (or
// nested VM) was running means, and performs host-side routing. It reports
// whether the interrupt must additionally be delivered to the guest
// hypervisor of the current VM.
func (h *Hypervisor) routeIRQToVM(c *arm.CPU, lc *loadedCtx, intid int) bool {
	v := lc.vcpu
	h.ackPhysIRQ(c, intid)
	if intid != KickSGI {
		// Device/timer/SGI interrupts are injected as virtual interrupts;
		// a kick only prods the run loop (the interrupt payload was queued
		// by the sender-side emulation).
		h.injectVIRQ(v, intid)
	}
	if v.VM.GuestHyp != nil {
		// The flush into list registers happens in the forwarding path,
		// after the shadow interface state has been synced back.
		return true
	}
	h.flushPendingVIRQ(v)
	return false
}

// handlePhysIRQ handles a physical interrupt taken while a plain guest,
// the guest hypervisor, or its host kernel was loaded.
func (h *Hypervisor) handlePhysIRQ(c *arm.CPU, lc *loadedCtx, intid int) {
	c.Work(workVGICEmu)
	h.ackPhysIRQ(c, intid)
	v := lc.vcpu
	if intid == KickSGI {
		h.flushPendingVIRQ(v)
		return
	}
	if intid >= MinDeviceSPI || intid == DevicePPI {
		// Device interrupt: the paravirtual backend (vhost) processes the
		// queued I/O before injecting the completion into the VM.
		c.Work(workDeviceEmu)
	}
	h.injectVIRQ(v, intid)
	h.flushPendingVIRQ(v)
}

// MinDeviceSPI is the first shared-peripheral interrupt ID (device IRQs).
const MinDeviceSPI = 32

// DevicePPI is the per-core completion interrupt of the generic emulated
// device (SMPGuest.DeviceKick): a private interrupt, so concurrent kicks
// on different cores never meet in the distributor.
const DevicePPI = 29

// ackPhysIRQ acknowledges and completes the physical interrupt: through
// the physical GIC CPU interface for the host, through the virtual CPU
// interface (hardware list registers) for a deprivileged hypervisor.
func (h *Hypervisor) ackPhysIRQ(c *arm.CPU, intid int) {
	if h.IsHost() {
		c.AddCycles(2 * c.Cost.MMIO)
		return
	}
	got := c.MRS(arm.ICC_IAR1_EL1)
	c.MSR(arm.ICC_EOIR1_EL1, got)
}
