package kvm

import (
	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/mem"
)

// This file contains the world-switch sequences: the privileged-operation
// traffic KVM/ARM performs on every exit and entry. When the hypervisor
// runs deprivileged as a guest hypervisor, each operation is routed by the
// architecture model — trapped under ARMv8.3, rewritten under NEVE — so the
// trap counts of Table 7 and the cycle costs of Tables 1 and 6 emerge from
// these sequences.
//
// The structure follows KVM in Linux 4.10 (the paper's software):
// __guest_exit/__guest_enter, __(de)activate_traps, __(de)activate_vm,
// __sysreg_save/restore_{guest,host}_state, __timer_save/restore_state,
// __vgic_save/restore_state. A non-VHE build additionally drops from its
// lowvisor to its host kernel in EL1 and comes back via hvc on every exit
// (Figure 1(a)); a VHE build stays in EL2 (Figure 1(b)).

// Straight-line work charges (instructions) for the code between
// privileged operations.
const (
	workGuestExitAsm  = 35  // __guest_exit register spilling glue
	workExitDispatch  = 140 // fixup checks, exit reason decode, run loop
	workHostKernel    = 260 // handle_exit in the host kernel, scheduling
	workGuestEnterAsm = 35  // __guest_enter glue
	workSysRegEmu     = 240 // host hypervisor's trapped-sysreg emulation
	// Nested-entry and exit-forwarding are the heavyweight emulation
	// paths: virtual-state transfer, shadow vgic sanitization, shadow
	// Stage-2 maintenance, and (with NEVE) deferred-access-page sync.
	// Calibrated against Tables 1 and 6.
	workERetEmu    = 7000
	workForwardEmu = 7000
	workDeviceEmu  = 900 // paravirtual device (virtio-mmio) backend work
	workVGICEmu    = 300 // virtual distributor emulation per operation
	workHypercall  = 60  // null hypercall service

	// Per-class emulation costs of trapped virtual-EL2 register accesses
	// (beyond the generic path): sanitizing and shadowing GIC interface
	// payloads, emulating the virtual timers (the VHE *_EL02 accesses are
	// the costliest — Section 7.1 attributes VHE's higher NEVE cycle count
	// to the extra timer), and validating trap-control updates.
	workVGICWriteEmu = 2500
	workTimerEmu     = 3500
	workTimerEmu02   = 5500
	workCtlEmu       = 1500
)

// apRegsVHE / apRegsNonVHE: how many GIC active-priority registers the two
// builds switch (GICv3 system-register interface vs GICv2-style).
const (
	apRegsVHE    = 4
	apRegsNonVHE = 1
)

// hostCNTHCTL / guestCNTHCTL are the hypervisor/guest timer trap settings.
const (
	hostCNTHCTL  = 0x3
	guestCNTHCTL = 0x0
)

// selfReg returns the encoding the build uses for its own EL2 register r: a
// VHE hypervisor uses the EL1 access instruction that E2H redirects
// (Section 2); a non-VHE hypervisor uses the EL2 name. This is why a VHE
// guest hypervisor traps far less under ARMv8.3 (Section 5).
func (h *Hypervisor) selfReg(r arm.SysReg) arm.SysReg {
	if !h.Cfg.VHE {
		return r
	}
	switch r {
	case arm.ESR_EL2:
		return arm.ESR_EL1
	case arm.ELR_EL2:
		return arm.ELR_EL1
	case arm.SPSR_EL2:
		return arm.SPSR_EL1
	case arm.FAR_EL2:
		return arm.FAR_EL1
	case arm.VBAR_EL2:
		return arm.VBAR_EL1
	case arm.SCTLR_EL2:
		return arm.SCTLR_EL1
	case arm.TCR_EL2:
		return arm.TCR_EL1
	case arm.TTBR0_EL2:
		return arm.TTBR0_EL1
	case arm.CPTR_EL2:
		return arm.CPACR_EL1
	case arm.CNTHCTL_EL2:
		return arm.CNTKCTL_EL1
	}
	return r
}

// vmReg returns the encoding the build uses to reach a VM EL1 context
// register: *_EL12 for VHE, the plain name for non-VHE.
func (h *Hypervisor) vmReg(r arm.SysReg) arm.SysReg {
	if h.Cfg.VHE {
		return el12For(r)
	}
	return r
}

// hostHCRValue is what the build programs into HCR_EL2 while in the
// hypervisor/host (traps deactivated).
func (h *Hypervisor) hostHCRValue() uint64 {
	if h.Cfg.VHE {
		return arm.HCRE2H
	}
	return 0
}

// eretToSelfHost models the non-VHE lowvisor dropping to its host kernel in
// EL1. For the host hypervisor this is a real (cheap) exception return plus
// re-entry later; for a deprivileged guest hypervisor the eret traps to the
// host hypervisor — part of the exit multiplication problem (Section 5).
func (h *Hypervisor) eretToSelfHost(c *arm.CPU) {
	if h.Cfg.VHE {
		return
	}
	if h.IsHost() {
		c.AddCycles(c.Cost.TrapReturn)
		return
	}
	c.ERET()
}

// hvcToSelfHyp models the non-VHE host kernel re-entering its lowvisor.
func (h *Hypervisor) hvcToSelfHyp(c *arm.CPU) {
	if h.Cfg.VHE {
		return
	}
	if h.IsHost() {
		c.AddCycles(c.Cost.TrapEnter)
		return
	}
	c.HVC(immSelfHyp)
}

// hvc immediates of the modeled software.
const (
	immNullHypercall uint16 = 0
	// immSelfHyp is the non-VHE hosted hypervisor's host-kernel-to-
	// lowvisor call (KVM's __kvm_call_hyp).
	immSelfHyp uint16 = 0x7f1
)

// optimized reports whether the build uses the load/put-deferred VHE
// switching design (Config.Optimized).
func (h *Hypervisor) optimized() bool { return h.Cfg.VHE && h.Cfg.Optimized }

// guestExitSeq is everything KVM does from the exception vector until its
// host kernel can handle the exit.
func (h *Hypervisor) guestExitSeq(c *arm.CPU, v *VCPU, e *arm.Exception) {
	c.Work(workGuestExitAsm)
	c.MemOp(31)              // spill guest GPRs to the vcpu struct
	_ = c.MRS(arm.TPIDR_EL2) // per-CPU vcpu pointer (no EL1 alias, even VHE)
	_ = c.MRS(arm.VMPIDR_EL2)
	_ = c.MRS(h.selfReg(arm.ESR_EL2))
	_ = c.MRS(h.selfReg(arm.ELR_EL2))
	_ = c.MRS(h.selfReg(arm.SPSR_EL2))
	if e != nil && (e.EC == arm.ECDAbtLow || e.EC == arm.ECIAbtLow) {
		_ = c.MRS(h.selfReg(arm.FAR_EL2))
		if h.Cfg.VHE {
			// The VHE build resolves the IPA with an AT-based walk from
			// the redirected FAR instead of reading HPFAR_EL2.
			c.Work(12)
		} else {
			_ = c.MRS(arm.HPFAR_EL2)
		}
	}
	// __deactivate_traps
	c.MSR(arm.HCR_EL2, h.hostHCRValue())
	c.MSR(h.selfReg(arm.CPTR_EL2), 0x33ff)
	if !h.optimized() {
		c.MSR(arm.MDCR_EL2, 0)
		c.MSR(arm.HSTR_EL2, 0)
		// __deactivate_vm
		c.MSR(arm.VTTBR_EL2, 0)
		h.saveVMCtx(c, v)
		h.timerSave(c, v)
	}
	h.vgicSave(c, v)
	if !h.Cfg.VHE {
		h.restoreHostCtx(c)
	}
	c.Work(workExitDispatch)
}

// guestEnterSeq is everything KVM does to enter the context described by
// mode on vcpu v, up to (but not including) the final eret.
func (h *Hypervisor) guestEnterSeq(c *arm.CPU, v *VCPU, mode runMode) {
	if !h.Cfg.VHE {
		h.saveHostCtx(c)
	}
	// __activate_traps (HCR is read-modify-written: VF/VI bits persist)
	hcr := c.MRS(arm.HCR_EL2)
	_ = hcr
	c.MSR(arm.HCR_EL2, h.runHCR(v, mode))
	c.MSR(h.selfReg(arm.CPTR_EL2), 0x300000)
	if !h.optimized() {
		c.MSR(arm.MDCR_EL2, 0x6)
		c.MSR(arm.HSTR_EL2, 0)
		// __activate_vm
		c.MSR(arm.VPIDR_EL2, v.VEL2.Get(arm.VPIDR_EL2))
		c.MSR(arm.VMPIDR_EL2, v.VEL2.Get(arm.VMPIDR_EL2))
	}
	c.MSR(arm.VTTBR_EL2, h.runVTTBR(c, v, mode))
	if gh := v.VM.GuestHyp; gh != nil && h.M.CPUs[0].Feat.NV2 {
		vhcr := v.VEL2.Get(arm.HCR_EL2)
		switch {
		case mode == modeNested && vhcr&arm.HCRNV2 != 0:
			// Recursive NEVE (Section 6.2): the host emulates NEVE for the
			// next level by translating the guest hypervisor's VNCR page
			// address and programming it into the hardware VNCR_EL2.
			if xl, ok := h.vncrTranslate(v); ok {
				c.MSR(arm.VNCR_EL2, core.MakeVNCR(xl, true))
			}
		case gh.Cfg.NEVE:
			// NEVE workflow (Section 6.1): enabled while the guest
			// hypervisor runs; disabled while the nested VM runs so it can
			// use its own EL1 registers.
			c.MSR(arm.VNCR_EL2, core.MakeVNCR(v.PageAddr, mode == modeVEL2))
		}
	}
	if !h.optimized() {
		h.restoreVMCtx(c, v)
		h.timerRestore(c, v)
	}
	// kvm_vgic_flush_hwstate: software-pending virtual interrupts move
	// into list register slots on every entry.
	h.flushPendingVIRQ(v)
	h.vgicRestore(c, v)
	// Program the return state for the eret.
	c.MSR(h.selfReg(arm.ELR_EL2), v.EL1.Get(arm.ELR_EL1))
	c.MSR(h.selfReg(arm.SPSR_EL2), v.EL1.Get(arm.SPSR_EL1))
	c.Work(workGuestEnterAsm)
	c.MemOp(31) // reload guest GPRs
}

// vmCtxSeq / hostCtxSeq are the world-switch sequences, precomputed per
// build flavor (a VHE hypervisor reaches the VM EL1 context through the
// *_EL12 encodings). The register lists and ordering are exactly
// el1CtxRegs + el0CtxRegs; only the per-access dispatch is resolved once.
var (
	vmCtxSeqNonVHE = newVMCtxSeq(false)
	vmCtxSeqVHE    = newVMCtxSeq(true)
	hostCtxSeq     = arm.NewCtxSeq(el1CtxRegs, el1CtxRegs)
)

func newVMCtxSeq(vhe bool) *arm.CtxSeq {
	var regs, slots []arm.SysReg
	for _, r := range el1CtxRegs {
		enc := r
		if vhe {
			enc = el12For(r)
		}
		regs, slots = append(regs, enc), append(slots, r)
	}
	for _, r := range el0CtxRegs {
		regs, slots = append(regs, r), append(slots, r)
	}
	return arm.NewCtxSeq(regs, slots)
}

func (h *Hypervisor) vmCtxSeq() *arm.CtxSeq {
	if h.Cfg.VHE {
		return vmCtxSeqVHE
	}
	return vmCtxSeqNonVHE
}

// runCtxSeq runs a batched context-switch sequence as a cycle-attribution
// transaction. Deprivileged, every access in the sequence traps; a handler
// that aborts mid-sequence by panicking (fault injection, the trap-storm
// watchdog) unwinds through here with the partial sequence's cycle charges
// already applied, and the recovery boundary then re-runs the world switch
// — double-charging the aborted prefix. Rewinding to the mark on a
// non-completing unwind makes the aborted attempt cost nothing, so
// attribution totals match a run that never diverged.
func runCtxSeq(c *arm.CPU, fn func()) {
	m := c.MarkClock()
	done := false
	defer func() {
		if !done {
			c.RewindClock(m)
		}
	}()
	fn()
	done = true
}

// saveVMCtx saves the VM's EL1 context into the hypervisor's vcpu store.
func (h *Hypervisor) saveVMCtx(c *arm.CPU, v *VCPU) {
	runCtxSeq(c, func() {
		c.SaveSeq(h.vmCtxSeq(), v.EL1.file())
		c.MemOp(uint64(len(el1CtxRegs) + len(el0CtxRegs)))
	})
}

// restoreVMCtx loads the VM's EL1 context onto the hardware.
func (h *Hypervisor) restoreVMCtx(c *arm.CPU, v *VCPU) {
	runCtxSeq(c, func() {
		c.MemOp(uint64(len(el1CtxRegs) + len(el0CtxRegs)))
		c.LoadSeq(h.vmCtxSeq(), v.EL1.file())
	})
}

// restoreHostCtx / saveHostCtx switch the non-VHE build's host kernel EL1
// context, using plain EL1 names: deprivileged, these interfere with the
// guest hypervisor's own EL1 and must be intercepted (NV1 under ARMv8.3) or
// deferred (NEVE).
func (h *Hypervisor) restoreHostCtx(c *arm.CPU) {
	runCtxSeq(c, func() {
		c.MemOp(uint64(len(el1CtxRegs)))
		c.LoadSeq(hostCtxSeq, h.hostCtxs[c.ID].file())
	})
}

func (h *Hypervisor) saveHostCtx(c *arm.CPU) {
	runCtxSeq(c, func() {
		c.SaveSeq(hostCtxSeq, h.hostCtxs[c.ID].file())
		c.MemOp(uint64(len(el1CtxRegs)))
	})
}

// timerSave parks the VM's EL1 virtual timer and restores hypervisor timer
// trap configuration. The VHE build reaches the VM timer through the
// *_EL02 encodings, which always trap — the extra traps Section 7.1
// discusses.
func (h *Hypervisor) timerSave(c *arm.CPU, v *VCPU) {
	ctl := arm.CNTV_CTL_EL0
	if h.Cfg.VHE {
		ctl = arm.CNTV_CTL_EL02
	}
	cur := c.MRS(ctl)
	v.EL1.Set(arm.CNTV_CTL_EL0, cur)
	c.MSR(ctl, cur&^CtlEnableBit) // park the timer; the compare value stays
	c.MSR(h.selfReg(arm.CNTHCTL_EL2), hostCNTHCTL)
	c.MemOp(2)
}

// CtlEnableBit is the timer control enable bit.
const CtlEnableBit uint64 = 1

func (h *Hypervisor) timerRestore(c *arm.CPU, v *VCPU) {
	ctl := arm.CNTV_CTL_EL0
	if h.Cfg.VHE {
		ctl = arm.CNTV_CTL_EL02
	}
	c.MemOp(2)
	c.MSR(h.selfReg(arm.CNTHCTL_EL2), guestCNTHCTL)
	c.MSR(arm.CNTVOFF_EL2, v.VEL2.Get(arm.CNTVOFF_EL2))
	c.MSR(ctl, v.EL1.Get(arm.CNTV_CTL_EL0))
}

// ichRead/ichWrite access a hypervisor control interface register through
// whichever interface the build uses: a GICv3 system register access, or a
// load/store on the memory-mapped GICv2 GICH window (which, deprivileged,
// faults in Stage-2 instead of trapping as a system register access).
func (h *Hypervisor) ichRead(c *arm.CPU, r arm.SysReg) uint64 {
	if !h.Cfg.GICv2 {
		return c.MRS(r)
	}
	off, ok := gic.HostIfcOffset(r)
	if !ok {
		panic("kvm: no GICH offset for " + r.String())
	}
	return c.GuestRead(gic.HostIfcBase+mem.Addr(off), 4)
}

func (h *Hypervisor) ichWrite(c *arm.CPU, r arm.SysReg, v uint64) {
	if !h.Cfg.GICv2 {
		c.MSR(r, v)
		return
	}
	off, ok := gic.HostIfcOffset(r)
	if !ok {
		panic("kvm: no GICH offset for " + r.String())
	}
	c.GuestWrite(gic.HostIfcBase+mem.Addr(off), 4, v)
}

func (h *Hypervisor) apRegs() int {
	if h.Cfg.VHE {
		return apRegsVHE
	}
	return apRegsNonVHE
}

// vgicSave captures the virtual interface state (Table 5 registers).
// Reads dominate: under NEVE they are served from the cached copies in the
// deferred access page without trapping.
func (h *Hypervisor) vgicSave(c *arm.CPU, v *VCPU) {
	if h.optimized() && v.st.get(vcDirtyLRs) == 0 && !v.virqPending() {
		// Optimized design: the interface is left enabled and untouched
		// when no interrupts are in flight.
		return
	}
	_ = h.ichRead(c, arm.ICH_VTR_EL2) // interface capabilities
	_ = h.ichRead(c, arm.ICH_HCR_EL2)
	v.EL1.Set(arm.ICH_VMCR_EL2, h.ichRead(c, arm.ICH_VMCR_EL2))
	_ = h.ichRead(c, arm.ICH_ELRSR_EL2)
	_ = h.ichRead(c, arm.ICH_EISR_EL2)
	_ = h.ichRead(c, arm.ICH_MISR_EL2)
	for i := 0; i < usedLRs; i++ {
		v.EL1.Set(arm.ICHLR(i), h.ichRead(c, arm.ICHLR(i)))
	}
	for i := 0; i < h.apRegs(); i++ {
		_ = h.ichRead(c, arm.ICH_AP1R0_EL2+arm.SysReg(i))
	}
	if h.Cfg.VHE {
		// The GICv3 system-register interface has two priority groups.
		for i := 0; i < h.apRegs(); i++ {
			_ = h.ichRead(c, arm.ICH_AP0R0_EL2+arm.SysReg(i))
		}
	}
	h.ichWrite(c, arm.ICH_HCR_EL2, 0)
	c.MemOp(uint64(usedLRs + 2))
}

// vgicRestore reprograms the virtual interface: writes, which trap even
// under NEVE so the host hypervisor can sanitize and shadow them
// (Section 4, interrupt virtualization).
func (h *Hypervisor) vgicRestore(c *arm.CPU, v *VCPU) {
	if h.optimized() && v.st.get(vcDirtyLRs) == 0 && !v.virqPending() {
		return
	}
	c.MemOp(uint64(usedLRs + 2))
	if h.Cfg.VHE {
		// GICv3 flow: probe free list registers and maintenance status
		// before re-enabling; the GICv2-style flow uses cached values.
		_ = h.ichRead(c, arm.ICH_ELRSR_EL2)
		_ = h.ichRead(c, arm.ICH_EISR_EL2)
		_ = h.ichRead(c, arm.ICH_MISR_EL2)
		_ = h.ichRead(c, arm.ICH_VMCR_EL2)
	}
	h.ichWrite(c, arm.ICH_HCR_EL2, arm.ICHHCREn)
	h.ichWrite(c, arm.ICH_VMCR_EL2, v.EL1.Get(arm.ICH_VMCR_EL2))
	for i := 0; i < h.apRegs(); i++ {
		h.ichWrite(c, arm.ICH_AP1R0_EL2+arm.SysReg(i), 0)
	}
	for i := 0; i < int(v.st.get(vcDirtyLRs)); i++ {
		h.ichWrite(c, arm.ICHLR(i), v.EL1.Get(arm.ICHLR(i)))
	}
}

// runHCR is the HCR value this hypervisor programs to run mode. When the
// hypervisor is itself a guest, this write lands in its virtual HCR_EL2
// (or the deferred access page) and the host hypervisor interprets it.
func (h *Hypervisor) runHCR(v *VCPU, mode runMode) uint64 {
	hcr := arm.HCRVM | arm.HCRIMO | arm.HCRFMO | arm.HCRTSC
	if h.Cfg.VHE {
		hcr |= arm.HCRE2H
	}
	if mode == modeVEL2 {
		hcr |= arm.HCRNV
		if !v.VM.GuestHyp.Cfg.VHE {
			hcr |= arm.HCRNV1
		}
		if v.VM.GuestHyp.Cfg.NEVE {
			hcr |= arm.HCRNV2
		}
	}
	if mode == modeNested {
		// Pass the guest hypervisor's trap configuration through: if it is
		// itself running a (doubly) nested hypervisor, its virtual NV bits
		// must reach the hardware (recursive virtualization, Section 6.2).
		hcr |= v.VEL2.Get(arm.HCR_EL2) & (arm.HCRNV | arm.HCRNV1 | arm.HCRNV2)
	}
	return hcr
}

// runVTTBR is the Stage-2 root this hypervisor programs for mode.
func (h *Hypervisor) runVTTBR(c *arm.CPU, v *VCPU, mode runMode) uint64 {
	switch mode {
	case modeNested:
		return h.shadowVTTBR(c, v)
	case modeVEL2, modeVEL1Host, modeGuestOS:
		return h.vmVTTBR(v.VM)
	default:
		return 0
	}
}
