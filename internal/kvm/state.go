package kvm

import (
	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
)

// This file implements the host hypervisor's bookkeeping of a guest
// hypervisor's three register worlds:
//
//   - the virtual EL2 state (v.VEL2), trap-and-emulate backed;
//   - the virtual EL1 state of the interrupted guest (v.VirtEL1 under
//     ARMv8.3; the deferred access page under NEVE);
//   - the hardware-bound snapshot (v.EL1) that the world switch loads.

// vel2RedirectRules are the Table 4 register pairs whose EL2 state lives in
// hardware EL1 registers while the guest hypervisor runs (NEVE register
// redirection; under ARMv8.3 the host loads the same projection manually).
var vel2RedirectRules = func() []core.Rule {
	var out []core.Rule
	for _, r := range core.Rules() {
		if r.Treatment == core.TreatRedirect {
			out = append(out, r)
		}
	}
	return out
}()

// vncrEL2Regs are the EL2 registers stored in the deferred access page
// (Table 3 VM trap control + thread ID + the cached-copy control and GIC
// registers), which the host must sync with the virtual EL2 state around
// guest hypervisor execution.
var vncrEL2Regs = func() []arm.SysReg {
	var out []arm.SysReg
	for _, r := range core.Rules() {
		if arm.Info(r.Reg).Min == arm.EL2 && r.VNCROffset >= 0 {
			out = append(out, r.Reg)
		}
	}
	return out
}()

// vncrEL1Regs are the EL1 (and EL0 PMU) registers stored in the page: the
// virtual EL1 context of the nested VM.
var vncrEL1Regs = func() []arm.SysReg {
	var out []arm.SysReg
	for _, r := range core.Rules() {
		if arm.Info(r.Reg).Min <= arm.EL1 && r.VNCROffset >= 0 {
			out = append(out, r.Reg)
		}
	}
	return out
}()

// The bookkeeping moves below are context runs, resolved once at init:
// the world switch runs several of them on every exit.
var (
	// el1CtxRun copies the EL1 context between the hardware-bound snapshot
	// and the virtual EL1 store; vncrEL1Run and vncrEL2Run copy the page's
	// EL1 and EL2 slots.
	el1CtxRun  = newCtxRun(el1CtxRegs, el1CtxRegs)
	vncrEL1Run = newCtxRun(vncrEL1Regs, vncrEL1Regs)
	vncrEL2Run = newCtxRun(vncrEL2Regs, vncrEL2Regs)
	// vncrDeferredRun is the part of vncrEL2Run the guest hypervisor
	// writes through the page (TreatVNCR); the rest are cached copies.
	vncrDeferredRun = func() ctxRun {
		var regs []arm.SysReg
		for _, r := range vncrEL2Regs {
			if core.RuleFor(r).Treatment == core.TreatVNCR {
				regs = append(regs, r)
			}
		}
		return newCtxRun(regs, regs)
	}()
	// vel2EnvRun projects the virtual EL2 execution environment onto the
	// EL1 image (vel2EnvRunVHE adds the VHE-only redirects), and
	// vel2BackRun harvests it back.
	vel2EnvRun, vel2EnvRunVHE, vel2BackRun = func() (ctxRun, ctxRun, ctxRun) {
		var el1, el2 []arm.SysReg
		for _, rule := range vel2RedirectRules {
			el1, el2 = append(el1, rule.Redirect), append(el2, rule.Reg)
		}
		el1, el2 = append(el1, arm.SP_EL1), append(el2, arm.SP_EL2)
		back := newCtxRun(el2, el1)
		env := newCtxRun(el1, el2)
		// VHE guest hypervisors own TCR/TTBR0/TTBR1/CONTEXTIDR via
		// redirection as well (Table 4, "Redirect or trap" and "(VHE)").
		el1 = append(el1, arm.TCR_EL1, arm.TTBR0_EL1, arm.TTBR1_EL1, arm.CONTEXTIDR_EL1)
		el2 = append(el2, arm.TCR_EL2, arm.TTBR0_EL2, arm.TTBR1_EL2, arm.CONTEXTIDR_EL2)
		return env, newCtxRun(el1, el2), back
	}()
)

// storeVirtEL1 parks the interrupted virtual EL1 context (currently
// snapshotted in v.EL1 by the world switch) into the virtual EL1 store:
// hypervisor memory under ARMv8.3, the deferred access page under NEVE
// ("the host hypervisor copies the EL1 system register values from the
// hardware into the deferred access page, enables NEVE, and runs the guest
// hypervisor" — Section 6.1).
func (h *Hypervisor) storeVirtEL1(c *arm.CPU, v *VCPU) {
	v.VirtEL1.copyRun(&v.EL1, el1CtxRun)
	c.MemOp(uint64(len(el1CtxRegs)))
	if h.neveActive(v.VM) {
		v.PageCtx.copyRun(&v.VirtEL1, vncrEL1Run)
		// Refresh the cached copies of the EL2 registers as well, so the
		// guest hypervisor's deferred reads observe current values.
		v.PageCtx.copyRun(&v.VEL2, vncrEL2Run)
		c.MemOp(uint64(len(vncrEL1Regs) + len(vncrEL2Regs)))
	}
}

// loadVirtEL1 loads the virtual EL1 store into the hardware-bound context
// (entering the nested VM or the guest hypervisor's own host kernel). Under
// NEVE the store is the deferred access page.
func (h *Hypervisor) loadVirtEL1(c *arm.CPU, v *VCPU) {
	if h.neveActive(v.VM) {
		v.VirtEL1.copyRun(&v.PageCtx, vncrEL1Run)
		c.MemOp(uint64(len(vncrEL1Regs)))
	}
	v.EL1.copyRun(&v.VirtEL1, el1CtxRun)
	c.MemOp(uint64(len(el1CtxRegs)))
}

// syncVEL2FromPage pulls the guest hypervisor's deferred writes to VM trap
// control registers (virtual HCR_EL2, VTTBR_EL2, ...) out of the page into
// the virtual EL2 state, where the host's emulation logic consumes them.
func (h *Hypervisor) syncVEL2FromPage(c *arm.CPU, v *VCPU) {
	v.VEL2.copyRun(&v.PageCtx, vncrDeferredRun)
	c.MemOp(uint64(len(vncrDeferredRun)))
}

// projectVEL2Env builds the hardware EL1 image of the guest hypervisor's
// execution environment: the Table 4 redirect registers (its vectors,
// translation and fault state) plus its stack and return state. Running
// deprivileged in EL1 with this image, the guest hypervisor behaves as it
// would at EL2 (Section 6).
func (h *Hypervisor) projectVEL2Env(c *arm.CPU, v *VCPU) {
	run := vel2EnvRun
	if v.VM.GuestHyp.Cfg.VHE {
		run = vel2EnvRunVHE
	}
	v.EL1.copyRun(&v.VEL2, run)
	c.MemOp(uint64(len(vel2RedirectRules) + 5))
	v.st.set(vcInVEL2, 1)
}

// projectVEL2Back harvests the redirect registers from the hardware
// snapshot into the virtual EL2 state. Under NEVE the guest hypervisor's
// writes to these EL2 registers went straight to the hardware EL1
// registers; under ARMv8.3 they were trapped and emulated, making this a
// cheap no-op refresh.
func (h *Hypervisor) projectVEL2Back(c *arm.CPU, v *VCPU) {
	if v.st.get(vcInVEL2) == 0 {
		return
	}
	v.VEL2.copyRun(&v.EL1, vel2BackRun)
	c.MemOp(uint64(len(vel2BackRun)))
	v.st.set(vcInVEL2, 0)
}
