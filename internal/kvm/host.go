package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/machine"
	"github.com/nevesim/neve/internal/mem"
)

// fwd describes an exit queued for delivery into a guest hypervisor's
// virtual EL2 vector.
type fwd struct {
	child *Hypervisor
	exc   arm.Exception
	level arm.VLevel
}

// inflight holds a record the model keeps outside tracked state: an exit
// queued for forwarding or for vector entry. Its presence is a one-word
// flag file (jit.Engine.RegisterFlags), so no super-op consumes a record
// it did not create or leaves one in flight.
type inflight[T any] struct {
	rec  *T
	flag [1]uint64
	jt   *jit.FileTap
}

func (f *inflight[T]) put(r *T) {
	f.jt.Write(0)
	f.flag[0], f.rec = 1, r
}

// take dequeues the record, or returns nil.
func (f *inflight[T]) take() *T {
	f.jt.Read(0)
	if f.flag[0] == 0 {
		return nil
	}
	f.jt.Write(0)
	r := f.rec
	f.flag[0], f.rec = 0, nil
	return r
}

// copyRec returns a copy of the record (nil for none); reset installs a
// copy of r. Both are for checkpoints, outside recordings.
func (f *inflight[T]) copyRec() *T {
	if f.rec == nil {
		return nil
	}
	c := *f.rec
	return &c
}

func (f *inflight[T]) reset(r *T) {
	f.rec, f.flag[0] = nil, 0
	if r != nil {
		c := *r
		f.rec, f.flag[0] = &c, 1
	}
}

// handleExit is the complete KVM exit path: lowvisor exit, host kernel
// handling, re-entry. It runs identically for the host hypervisor (called
// from the EL2 vector) and for a guest hypervisor (called from VectorEntry
// when its parent forwards an exit); in the latter case its privileged
// operations trap or defer.
func (h *Hypervisor) handleExit(c *arm.CPU, e *arm.Exception) uint64 {
	lc := h.cur(c)
	v := lc.vcpu()
	if v == nil {
		panic(fmt.Sprintf("kvm[%s]: exit %s with no vcpu loaded on cpu%d", h.Cfg.Name, e.EC, c.ID))
	}
	h.guestExitSeq(c, v, e)
	h.eretToSelfHost(c)
	c.Work(workHostKernel)
	ret := h.dispatch(c, lc, e)
	h.hvcToSelfHyp(c)
	h.guestEnterSeq(c, lc.vcpu(), lc.mode())
	h.setGuestEnv(c, lc)
	if f := h.pendingFwd[c.ID].take(); f != nil {
		if !h.IsHost() {
			// A deprivileged hypervisor cannot enter its guest itself: it
			// records the pending virtual vector entry and erets; the host
			// invokes the entry when it loads the context (recursive
			// virtualization, Section 6.2). By the time the eret returns
			// here, the child has run and produced its result.
			v.pendingEntry.put(&f.exc)
			h.eretToGuest(c)
			return v.setX0(f.child.cur(c).vcpu().x0())
		}
		c.RunGuest(f.level, func() {
			f.child.VectorEntry(c, &f.exc)
		})
		// The child handled the exit and entered its own guest; MMIO
		// values it produced travel back through the virtual x0.
		return f.child.cur(c).vcpu().x0()
	}
	h.eretToGuest(c)
	return ret
}

// VectorEntry is the guest hypervisor's exception vector, invoked by the
// parent when it forwards an exit into virtual EL2 (Section 4).
func (h *Hypervisor) VectorEntry(c *arm.CPU, e *arm.Exception) {
	h.handleExit(c, e)
}

// eretToGuest performs the final return into the guest: a real eret for a
// deprivileged hypervisor (which traps to its parent); the host
// hypervisor's return happens in the architecture's trap epilogue.
func (h *Hypervisor) eretToGuest(c *arm.CPU) {
	if !h.IsHost() {
		c.ERET()
	}
}

// setGuestEnv points the hardware at the software that runs after the next
// guest entry: virtualization level for tracing and the virtual IRQ sink.
// Only the host hypervisor owns the physical guest environment; a
// deprivileged hypervisor's equivalent actions are the virtual state updates
// its parent interprets at entry time.
func (h *Hypervisor) setGuestEnv(c *arm.CPU, lc loadedCtx) {
	if !h.IsHost() {
		return
	}
	switch lc.mode() {
	case modeGuestOS:
		c.SetGuestLevel(h.Level + 1)
		c.SetVIRQ(lc.vcpu().Guest)
	case modeNested:
		sink, level := h.leafGuest(lc.vcpu())
		c.SetGuestLevel(level)
		if sink != nil {
			c.SetVIRQ(sink)
		} else {
			c.SetVIRQ(nil)
		}
	case modeVEL2, modeVEL1Host:
		c.SetGuestLevel(h.Level + 1)
		c.SetVIRQ(nil) // the guest hypervisor takes interrupts via its vector
	}
}

// leafGuest descends the nesting chain from a vcpu whose nested context is
// loaded, returning the innermost running guest's OS context (nil when a
// deeper hypervisor is what runs) and its virtualization level. One level
// for plain nesting; deeper for the recursive configurations (Section 6.2).
func (h *Hypervisor) leafGuest(v *VCPU) (*GuestCtx, arm.VLevel) {
	level := h.Level + 1
	for {
		level++
		if v.VEL2.Get(arm.HCR_EL2)&arm.HCRNV != 0 {
			// The next level's guest hypervisor is what runs: it takes
			// interrupts through its (virtual) vector, not a sink.
			return nil, level
		}
		nv := v.nestedVCPU()
		gh := nv.VM.GuestHyp
		if gh == nil || len(gh.VMs) == 0 {
			return nv.Guest, level
		}
		if nv.VEL2.Get(arm.HCR_EL2)&arm.HCRVM == 0 || nv.VEL2.Get(arm.VTTBR_EL2) == 0 {
			// The deeper hypervisor has not entered its VM.
			return nv.Guest, level
		}
		v = nv
	}
}

// dispatch is the host kernel part of exit handling. It may switch the
// loaded context's mode (nested entry, vEL2 transfer) or queue a forward
// into the guest hypervisor.
func (h *Hypervisor) dispatch(c *arm.CPU, lc loadedCtx, e *arm.Exception) uint64 {
	switch lc.mode() {
	case modeGuestOS:
		return h.dispatchGuestExit(c, lc, e)
	case modeNested:
		return h.dispatchNestedExit(c, lc, e)
	case modeVEL2:
		return h.dispatchVEL2Exit(c, lc, e)
	case modeVEL1Host:
		return h.dispatchVEL1HostExit(c, lc, e)
	default:
		panic("kvm: exit in unknown mode")
	}
}

// dispatchGuestExit handles exits from a plain VM guest OS — for the host
// hypervisor a VM, for a guest hypervisor its nested VM (the code is the
// same; only the routing of its privileged operations differs).
func (h *Hypervisor) dispatchGuestExit(c *arm.CPU, lc loadedCtx, e *arm.Exception) uint64 {
	v := lc.vcpu()
	switch e.EC {
	case arm.ECHVC64:
		if val, ok := h.handlePSCI(c, lc, e.Imm); ok {
			return val
		}
		c.Work(workHypercall)
		return 0
	case arm.ECDAbtLow:
		if e.FaultIPA >= VirtioBase && uint64(e.FaultIPA-VirtioBase) < VirtioSize {
			if uint64(e.FaultIPA-VirtioBase) >= VirtioRegOff && uint64(e.FaultIPA-VirtioBase) < VirtioRegOff+0x100 {
				// The virtio-mmio register block of the real echo device.
				return v.setX0(h.virtioMMIO(c, v, e))
			}
			// Generic emulated device (the Device I/O microbenchmark).
			c.Work(workDeviceEmu)
			return v.setX0(uint64(e.FaultIPA) ^ 0xd1ce)
		}
		if h.isConsole(e.FaultIPA) {
			return h.emulateConsole(c, e)
		}
		if h.fixVMS2Fault(c, v, e) {
			return h.replay(c, v, e)
		}
		panic(fmt.Sprintf("kvm[%s]: unhandled stage-2 fault at %#x", h.Cfg.Name, uint64(e.FaultIPA)))
	case arm.ECSysReg:
		if e.Reg == arm.ICC_SGI1R_EL1 && e.Write {
			h.vgicSendSGI(c, v.VM, int(e.Val>>16&0xff), int(e.Val&0xf))
			return 0
		}
		panic(fmt.Sprintf("kvm[%s]: unexpected sysreg exit %s from guest OS", h.Cfg.Name, e.Reg))
	case arm.ECVirtIRQ:
		h.handlePhysIRQ(c, lc, e.IRQ)
		return 0
	case arm.ECWFx:
		c.Work(workHypercall)
		return 0
	case arm.ECSMC64:
		c.Work(workHypercall)
		return 0
	default:
		panic(fmt.Sprintf("kvm[%s]: unhandled guest exit %s", h.Cfg.Name, e.EC))
	}
}

// dispatchNestedExit handles exits taken while the nested VM was running:
// the host hypervisor serves shadow Stage-2 faults itself and forwards
// everything the guest hypervisor must see (Section 4).
func (h *Hypervisor) dispatchNestedExit(c *arm.CPU, lc loadedCtx, e *arm.Exception) uint64 {
	v := lc.vcpu()
	switch e.EC {
	case arm.ECDAbtLow:
		if e.FaultIPA < VirtioBase || uint64(e.FaultIPA-VirtioBase) >= VirtioSize {
			if h.fixShadowS2Fault(c, v, e) {
				return v.setX0(h.replay(c, v, e))
			}
		}
		// Let the guest hypervisor handle it (device emulation or its own
		// Stage-2 fault).
		h.prepareForward(c, lc, e)
		return 0
	case arm.ECVirtIRQ:
		if h.routeIRQToVM(c, lc, e.IRQ) {
			// The interrupt belongs to the L1 VM: forward an IRQ exception
			// to the guest hypervisor, whose virtual HCR routes VM
			// interrupts to (virtual) EL2.
			h.prepareForward(c, lc, e)
		}
		return 0
	default:
		h.prepareForward(c, lc, e)
		return 0
	}
}

// dispatchVEL2Exit handles traps from the deprivileged guest hypervisor:
// the ARMv8.3 trap-and-emulate path (and the residual traps under NEVE).
func (h *Hypervisor) dispatchVEL2Exit(c *arm.CPU, lc loadedCtx, e *arm.Exception) uint64 {
	v := lc.vcpu()
	switch e.EC {
	case arm.ECSysReg:
		if e.Reg == arm.ICC_SGI1R_EL1 && e.Write {
			// The guest hypervisor kicks another physical CPU.
			h.vgicSendSGI(c, v.VM, int(e.Val>>16&0xff), int(e.Val&0xf))
			return 0
		}
		return h.emulateVEL2SysReg(c, v, e)
	case arm.ECERet:
		h.handleVEL2ERet(c, lc)
		return 0
	case arm.ECHVC64:
		// Hypercall from the guest hypervisor to the host (PSCI etc.).
		if val, ok := h.handlePSCI(c, lc, e.Imm); ok {
			return val
		}
		c.Work(workHypercall)
		return 0
	case arm.ECDAbtLow:
		if h.isConsole(e.FaultIPA) {
			return h.emulateConsole(c, e)
		}
		if r, ok := h.gichFaultReg(e); ok {
			// GICv2: the hypervisor control interface is memory mapped and
			// unmapped (or read-only) in Stage-2; faults are emulated like
			// the equivalent system register accesses (Section 4).
			se := &arm.Exception{EC: arm.ECSysReg, Reg: r, Write: e.Write, Val: e.Val}
			return h.emulateVEL2SysReg(c, v, se)
		}
		panic(fmt.Sprintf("kvm[%s]: unhandled vEL2 stage-2 fault at %#x", h.Cfg.Name, uint64(e.FaultIPA)))
	case arm.ECVirtIRQ:
		h.handlePhysIRQ(c, lc, e.IRQ)
		return 0
	default:
		panic(fmt.Sprintf("kvm[%s]: unhandled vEL2 exit %s", h.Cfg.Name, e.EC))
	}
}

// dispatchVEL1HostExit handles traps from the guest hypervisor's own host
// kernel running at virtual EL1 (the non-VHE hosted design, Figure 1(a)).
func (h *Hypervisor) dispatchVEL1HostExit(c *arm.CPU, lc loadedCtx, e *arm.Exception) uint64 {
	switch e.EC {
	case arm.ECHVC64:
		// The guest hypervisor's host kernel calls into its lowvisor:
		// transfer to virtual EL2 and resume (the caller's code continues
		// there — no new vector entry).
		h.transferToVEL2(c, lc)
		return 0
	case arm.ECSysReg:
		if e.Reg == arm.ICC_SGI1R_EL1 && e.Write {
			// The guest hypervisor's host kernel kicks another CPU
			// (smp_send_reschedule): an SGI within its VM.
			h.vgicSendSGI(c, lc.vcpu().VM, int(e.Val>>16&0xff), int(e.Val&0xf))
			return 0
		}
		panic(fmt.Sprintf("kvm[%s]: unhandled vEL1-host sysreg %s", h.Cfg.Name, e.Reg))
	case arm.ECDAbtLow:
		// The guest hypervisor's host kernel runs the device backends
		// (the console and virtio emulation live in the L1 host, like
		// QEMU/vhost): its own device accesses fault onward to us.
		if h.isConsole(e.FaultIPA) {
			return h.emulateConsole(c, e)
		}
		if v := lc.vcpu(); h.fixVMS2Fault(c, v, e) {
			return h.replay(c, v, e)
		}
		panic(fmt.Sprintf("kvm[%s]: unhandled vEL1-host stage-2 fault at %#x", h.Cfg.Name, uint64(e.FaultIPA)))
	case arm.ECVirtIRQ:
		h.handlePhysIRQ(c, lc, e.IRQ)
		return 0
	default:
		panic(fmt.Sprintf("kvm[%s]: unhandled vEL1-host exit %s", h.Cfg.Name, e.EC))
	}
}

// emulateVEL2SysReg performs the trapped access on the virtual state: EL2
// registers on the virtual EL2 context, EL1 registers (a non-VHE guest
// hypervisor preparing its VM) on the virtual EL1 context.
func (h *Hypervisor) emulateVEL2SysReg(c *arm.CPU, v *VCPU, e *arm.Exception) uint64 {
	c.Work(workSysRegEmu)
	c.Work(sysRegEmuExtra(e.Reg, e.Write))
	r := arm.StorageReg(e.Reg)
	store := &v.VEL2
	if arm.Info(r).Min <= arm.EL1 {
		store = &v.VirtEL1
	}
	if !e.Write {
		return store.Get(r)
	}
	store.Set(r, e.Val)
	if h.Cfg.GICv2 && v.VM.gicShadow != 0 {
		// Keep the read-only GICH shadow page current (the memory-mapped
		// form of the cached-copy treatment).
		if off, ok := gic.HostIfcOffset(r); ok {
			c.PhysWrite64(v.VM.gicShadow+mem.Addr(off), e.Val)
		}
	}
	if h.neveActive(v.VM) {
		// Keep the cached copy in the deferred access page current so the
		// guest hypervisor's deferred reads see the new value
		// (Section 6.1, "Trap on write").
		if rule := core.ResolvedRule(r); rule.VNCROffset >= 0 {
			c.MemOp(1)
			v.PageCtx.Set(r, e.Val)
		}
	}
	return 0
}

// sysRegEmuExtra is the class-specific emulation cost of a trapped
// virtual-EL2 register access.
func sysRegEmuExtra(r arm.SysReg, write bool) uint64 {
	switch {
	case r >= arm.CNTP_CTL_EL02 && r <= arm.CNTV_CVAL_EL02:
		// VHE timer accesses: full virtual timer emulation (Section 7.1).
		return workTimerEmu02
	case r == arm.CNTHCTL_EL2 || r == arm.CNTVOFF_EL2 ||
		r == arm.CNTHP_CTL_EL2 || r == arm.CNTHP_CVAL_EL2 ||
		r == arm.CNTHV_CTL_EL2 || r == arm.CNTHV_CVAL_EL2:
		return workTimerEmu
	case write && (arm.IsICHLR(r) || r == arm.ICH_HCR_EL2 || r == arm.ICH_VMCR_EL2 ||
		(r >= arm.ICH_AP0R0_EL2 && r <= arm.ICH_AP1R3_EL2)):
		// Sanitize and translate the shadow interface payload (Section 4).
		return workVGICWriteEmu
	case write && (r == arm.HCR_EL2 || r == arm.CPTR_EL2 || r == arm.MDCR_EL2 ||
		r == arm.HSTR_EL2 || r == arm.VTTBR_EL2):
		// Trap-control updates are validated against the host's policy.
		return workCtlEmu
	default:
		return 0
	}
}

// transferToVEL2 switches the loaded context from the guest hypervisor's
// host kernel (virtual EL1) to its lowvisor (virtual EL2).
func (h *Hypervisor) transferToVEL2(c *arm.CPU, lc loadedCtx) {
	v := lc.vcpu()
	c.Work(workForwardEmu)
	h.storeVirtEL1(c, v) // park the vEL1 host context
	h.projectVEL2Env(c, v)
	h.flushPendingVIRQ(v)
	lc.setMode(modeVEL2)
}

// prepareForward queues delivery of an exit into the guest hypervisor's
// virtual EL2 vector: park the interrupted virtual EL1 context, expose the
// syndrome through the virtual EL2 registers, and load the guest
// hypervisor's execution environment (Section 4).
func (h *Hypervisor) prepareForward(c *arm.CPU, lc loadedCtx, e *arm.Exception) {
	v := lc.vcpu()
	gh := v.VM.GuestHyp
	if gh == nil {
		panic("kvm: forward with no guest hypervisor")
	}
	c.Work(workForwardEmu)
	if lc.mode() == modeNested {
		// Sync the hardware list registers back into the virtual
		// interface state, so the guest hypervisor observes the nested
		// VM's acknowledgements and completions (Section 4, interrupt
		// virtualization).
		for i := 0; i < usedLRs; i++ {
			v.VEL2.Set(arm.ICHLR(i), v.EL1.Get(arm.ICHLR(i)))
		}
		c.MemOp(usedLRs)
	}
	h.storeVirtEL1(c, v)
	if h.Cfg.GICv2 {
		h.refreshGICShadow(c, v)
	}
	// Virtual exit syndrome: what the guest hypervisor's ESR_EL2 (etc.)
	// reads must observe. Under NEVE these are redirected to the hardware
	// EL1 registers, which projectVEL2Env loads below.
	v.VEL2.Set(arm.ESR_EL2, uint64(e.EC)<<26|uint64(e.Imm))
	v.VEL2.Set(arm.ELR_EL2, 0x1000) // virtual return address (opaque)
	v.VEL2.Set(arm.SPSR_EL2, 0x3c5)
	if e.EC == arm.ECDAbtLow || e.EC == arm.ECIAbtLow {
		v.VEL2.Set(arm.FAR_EL2, uint64(e.FaultIPA))
		v.VEL2.Set(arm.HPFAR_EL2, uint64(e.FaultIPA)>>8)
	}
	h.projectVEL2Env(c, v)
	h.flushPendingVIRQ(v)
	lc.setMode(modeVEL2)
	h.pendingFwd[c.ID].put(&fwd{child: gh, exc: *e, level: h.Level + 1})
}

// handleVEL2ERet handles the trapped eret of a guest hypervisor: enter its
// nested VM if its virtual Stage-2 is active, or return to its own host
// kernel at virtual EL1 (KVM deactivates the VM around host handling, so
// the virtual HCR_EL2.VM bit distinguishes the two).
func (h *Hypervisor) handleVEL2ERet(c *arm.CPU, lc loadedCtx) {
	v := lc.vcpu()
	c.Work(workERetEmu)
	if h.neveActive(v.VM) {
		h.syncVEL2FromPage(c, v)
	}
	h.projectVEL2Back(c, v)
	vhcr := v.VEL2.Get(arm.HCR_EL2)
	if vhcr&arm.HCRVM != 0 && v.VEL2.Get(arm.VTTBR_EL2) != 0 {
		h.loadNestedState(c, v)
		lc.setMode(modeNested)
		// Recursive virtualization: if the guest hypervisor queued a
		// vector entry into ITS guest hypervisor, run it once the nested
		// context is loaded (Section 6.2).
		if gh := v.VM.GuestHyp; gh != nil && len(gh.VMs) > 0 {
			nv := gh.VMs[0].VCPUs[v.ID]
			if ngh := nv.VM.GuestHyp; ngh != nil {
				if e := nv.pendingEntry.take(); e != nil {
					h.pendingFwd[c.ID].put(&fwd{child: ngh, exc: *e, level: h.Level + 2})
				}
			}
		}
	} else {
		h.loadVirtEL1(c, v)
		lc.setMode(modeVEL1Host)
	}
}

// loadNestedState prepares the hardware-bound vcpu context to run the
// nested VM: virtual EL1 context in, shadow list registers in (Section 6.1
// workflow: "copies register values from the deferred access page to
// physical EL1 registers to run the nested VM, and disables NEVE").
func (h *Hypervisor) loadNestedState(c *arm.CPU, v *VCPU) {
	h.loadVirtEL1(c, v)
	// Shadow vgic: the guest hypervisor's list register writes were
	// trapped and sanitized into its virtual EL2 state; load them for the
	// nested VM.
	n := 0
	for i := 0; i < usedLRs; i++ {
		lr := v.VEL2.Get(arm.ICHLR(i))
		v.EL1.Set(arm.ICHLR(i), lr)
		if arm.LRStateOf(lr) != arm.LRStateInvalid {
			n = i + 1
		}
	}
	v.st.set(vcDirtyLRs, uint64(n))
}

// isConsole reports whether a faulting address is in the console window.
func (h *Hypervisor) isConsole(ipa mem.Addr) bool {
	return ipa >= machine.UARTBase && ipa < machine.UARTBase+mem.PageSize
}

// emulateConsole services a console access: the host writes the machine
// UART; a deprivileged hypervisor's backend forwards it down the chain —
// its own device access faults to its parent in turn.
func (h *Hypervisor) emulateConsole(c *arm.CPU, e *arm.Exception) uint64 {
	c.Work(workConsoleEmu)
	if h.IsHost() {
		val := e.Val
		if h.M.Bus.Access(c, e.FaultIPA, e.Write, e.Size, &val) {
			return val
		}
		return 0
	}
	if e.Write {
		c.GuestWrite(e.FaultIPA, e.Size, e.Val)
		return 0
	}
	return c.GuestRead(e.FaultIPA, e.Size)
}

// workConsoleEmu is the console backend's per-byte work.
const workConsoleEmu = 120

// replay re-executes a faulted guest memory access after the mapping has
// been repaired, returning the loaded value for reads.
func (h *Hypervisor) replay(c *arm.CPU, v *VCPU, e *arm.Exception) uint64 {
	pa, ok := h.ipaToMachine(v, e.FaultIPA)
	if !ok {
		panic(fmt.Sprintf("kvm[%s]: replay of unmapped %#x", h.Cfg.Name, uint64(e.FaultIPA)))
	}
	if e.Write {
		c.PhysWrite64(pa, e.Val)
		return 0
	}
	return c.PhysRead64(pa)
}
