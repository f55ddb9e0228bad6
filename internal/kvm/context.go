// Package kvm models the KVM/ARM hypervisor of the paper: the widely-used
// hosted Linux hypervisor, modified to (a) act as a host hypervisor running
// guest hypervisors using ARMv8.3 nested virtualization support and (b) run
// as a guest hypervisor itself, optionally using NEVE (Sections 4 and 6.4).
//
// The same hypervisor logic runs as L0 (natively, at EL2) and as L1 or
// deeper (deprivileged, at EL1 in virtual EL2): its privileged operations go
// through the CPU model, which routes them natively, traps them (ARMv8.3),
// or rewrites them (NEVE). Trap counts and cycle costs of nested operation
// are therefore emergent from the executed register-access sequences, not
// configured.
package kvm

import (
	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/jit"
)

// Context is a saved system register context (one VM's EL1 state, a
// hypervisor's virtual EL2 state, the host kernel's context).
type Context struct {
	regs [arm.NumSysRegs]uint64
	// jt reports reads and writes to an installed trace-JIT engine so a
	// recording guards only the context words it consumed instead of
	// walking the whole file (nil, and free to check, until
	// Stack.InstallJIT registers the file). Every access path to regs —
	// Get, Set, and the batched sequences over file() — notifies it.
	jt *jit.FileTap
}

// A Context doubles as the tracked backing store of a NEVE deferred access
// page (VCPU.PageCtx): the engine's rewritten accesses go through Get/Set
// like every other saved-register funnel.
var _ arm.RegStore = (*Context)(nil)

// Get reads a saved register (alias encodings resolve to their target).
func (ctx *Context) Get(r arm.SysReg) uint64 {
	i := arm.StorageReg(r)
	ctx.jt.Read(int(i))
	return ctx.regs[i]
}

// Set writes a saved register.
func (ctx *Context) Set(r arm.SysReg, v uint64) {
	i := arm.StorageReg(r)
	ctx.jt.Write(int(i))
	ctx.regs[i] = v
}

// copyFrom moves one saved register from src slot sr into dst slot dr,
// reporting the read and the write to any installed trace-JIT engine.
func (ctx *Context) copyFrom(src *Context, dr, sr arm.SysReg) {
	di, si := arm.StorageReg(dr), arm.StorageReg(sr)
	src.jt.Read(int(si))
	ctx.jt.Write(int(di))
	ctx.regs[di] = src.regs[si]
}

// file exposes the raw register file for bulk sequence transfers
// (arm.CPU.SaveSeq/LoadSeq); slots are alias-resolved at sequence
// construction, matching what Get/Set would reach.
func (ctx *Context) file() *[arm.NumSysRegs]uint64 { return &ctx.regs }

// el1CtxRegs is the EL1 system register context KVM/ARM saves and restores
// when switching between a VM and the host (non-VHE) or between VMs: the
// "VM Execution Control" class of Table 3 plus the additional context
// registers KVM switches (Section 6.5 discusses why non-VHE KVM does this
// on every exit).
var el1CtxRegs = []arm.SysReg{
	arm.CSSELR_EL1,
	arm.SCTLR_EL1,
	arm.ACTLR_EL1,
	arm.CPACR_EL1,
	arm.TTBR0_EL1,
	arm.TTBR1_EL1,
	arm.TCR_EL1,
	arm.ESR_EL1,
	arm.AFSR0_EL1,
	arm.AFSR1_EL1,
	arm.FAR_EL1,
	arm.MAIR_EL1,
	arm.VBAR_EL1,
	arm.CONTEXTIDR_EL1,
	arm.AMAIR_EL1,
	arm.CNTKCTL_EL1,
	arm.PAR_EL1,
	arm.TPIDR_EL1,
	arm.SP_EL1,
	arm.ELR_EL1,
	arm.SPSR_EL1,
}

// el0CtxRegs is the EL0 thread context, switched alongside but never
// trapping (the physical EL0 state always belongs to the context being
// prepared; Section 4).
var el0CtxRegs = []arm.SysReg{
	arm.TPIDR_EL0,
	arm.TPIDRRO_EL0,
}

// el12For maps an EL1 context register to the VHE *_EL12 access encoding a
// VHE hypervisor uses for it, or the register itself where no encoding
// exists (CSSELR, ACTLR, PAR, TPIDR_EL1: harmless direct accesses) or where
// the register is reached through an EL2-only instruction (SP_EL1).
func el12For(r arm.SysReg) arm.SysReg {
	switch r {
	case arm.SCTLR_EL1:
		return arm.SCTLR_EL12
	case arm.CPACR_EL1:
		return arm.CPACR_EL12
	case arm.TTBR0_EL1:
		return arm.TTBR0_EL12
	case arm.TTBR1_EL1:
		return arm.TTBR1_EL12
	case arm.TCR_EL1:
		return arm.TCR_EL12
	case arm.ESR_EL1:
		return arm.ESR_EL12
	case arm.AFSR0_EL1:
		return arm.AFSR0_EL12
	case arm.AFSR1_EL1:
		return arm.AFSR1_EL12
	case arm.FAR_EL1:
		return arm.FAR_EL12
	case arm.MAIR_EL1:
		return arm.MAIR_EL12
	case arm.VBAR_EL1:
		return arm.VBAR_EL12
	case arm.CONTEXTIDR_EL1:
		return arm.CONTEXTIDR_EL12
	case arm.AMAIR_EL1:
		return arm.AMAIR_EL12
	case arm.CNTKCTL_EL1:
		return arm.CNTKCTL_EL12
	case arm.ELR_EL1:
		return arm.ELR_EL12
	case arm.SPSR_EL1:
		return arm.SPSR_EL12
	}
	return r
}

// usedLRs is how many GIC list registers the world switch saves and
// restores. KVM switches the used set; the modeled distributor exposes
// four, matching the common hardware configuration in the paper's servers.
const usedLRs = 4

// vgicCtxRegs is the virtual interface state switched with a VM.
var vgicCtxRegs = func() []arm.SysReg {
	regs := []arm.SysReg{arm.ICH_VMCR_EL2}
	for i := 0; i < usedLRs; i++ {
		regs = append(regs, arm.ICHLR(i))
	}
	return regs
}()
