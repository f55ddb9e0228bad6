package kvm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/machine"
	"github.com/nevesim/neve/internal/mem"
)

// Config selects the hypervisor build, mirroring the configurations the
// paper evaluates (Section 5 and 7).
type Config struct {
	// Name labels the hypervisor in diagnostics ("L0", "L1", ...).
	Name string
	// VHE selects the Virtualization Host Extensions build: the hypervisor
	// and its kernel run entirely in EL2, using EL1 access instructions
	// that E2H redirects, with no host EL1 context switching.
	VHE bool
	// NEVE makes the hypervisor use NEVE when it runs deprivileged as a
	// guest hypervisor (Section 6.4); ignored for the host role.
	NEVE bool
	// GICv2 makes the hypervisor program the GIC hypervisor control
	// interface through the memory-mapped GICH window (the paper's actual
	// evaluation hardware) instead of the GICv3 system registers. Guest
	// hypervisor accesses then trap as Stage-2 faults rather than system
	// register traps; the counts are equivalent (Section 4).
	GICv2 bool
	// Optimized selects the redesigned VHE hypervisor of Dall et al.
	// (USENIX ATC 2017, the paper's reference [16]): VM system register
	// and timer context are switched at vcpu_load/vcpu_put instead of on
	// every exit, and the virtual interface is reprogrammed only when
	// interrupts are in flight. Section 7.1 observes such a hypervisor
	// "with NEVE could potentially reduce the number of traps to the host
	// hypervisor to even less than x86". Requires VHE.
	Optimized bool
}

// runMode is what a loaded vCPU context is executing.
type runMode int

const (
	// modeVEL1Host: the guest hypervisor's own host kernel at virtual EL1.
	modeVEL1Host runMode = iota
	// modeVEL2: the deprivileged guest hypervisor ("virtual EL2").
	modeVEL2
	// modeNested: the guest hypervisor's VM (the nested VM).
	modeNested
	// modeGuestOS: a plain VM running only an OS.
	modeGuestOS
)

func (m runMode) String() string {
	switch m {
	case modeVEL1Host:
		return "vEL1-host"
	case modeVEL2:
		return "vEL2"
	case modeNested:
		return "nested"
	case modeGuestOS:
		return "guest"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// loadedCtx is a handle on the per-physical-CPU record of what context the
// hypervisor has loaded onto the hardware: two of the hypervisor's tracked
// words, the loaded vCPU (1 + its index in vcpus, 0 for none) and its run
// mode.
type loadedCtx struct {
	h   *Hypervisor
	cpu int
}

func (lc loadedCtx) vcpu() *VCPU {
	if i := lc.h.loaded.get(2 * lc.cpu); i != 0 {
		return lc.h.vcpus[i-1]
	}
	return nil
}

func (lc loadedCtx) mode() runMode { return runMode(lc.h.loaded.get(2*lc.cpu + 1)) }

func (lc loadedCtx) setMode(m runMode) { lc.h.loaded.set(2*lc.cpu+1, uint64(m)) }

// load records v (nil for none) running in mode m.
func (lc loadedCtx) load(v *VCPU, m runMode) {
	lc.h.loaded.set(2*lc.cpu, uint64(slices.Index(lc.h.vcpus, v)+1))
	lc.setMode(m)
}

// Allocation cursor indices into Hypervisor.alloc.
const (
	// hGuestNext is a deprivileged hypervisor's table-page bump cursor
	// (guestBacking).
	hGuestNext = iota
	hNextVMID
	numAllocWords
)

// Hypervisor is the KVM/ARM model. The same type serves as the L0 host
// hypervisor (installed as the EL2 exception vector) and as a deprivileged
// guest hypervisor at any level (entered through VectorEntry when its
// parent forwards an exit). Its privileged operations are ordinary CPU
// accesses, routed by the architecture model according to where it runs.
type Hypervisor struct {
	Cfg    Config
	M      *machine.Machine
	Parent *Hypervisor
	Level  arm.VLevel

	VMs []*VM

	// hostCtxs are the hypervisor's host Linux EL1 contexts, one per
	// physical core. A non-VHE build switches the running core's copy
	// against the VM context on every exit (Section 6.5). Per-core copies
	// (seeded identically) let world switches on different cores proceed
	// without sharing mutable state — the property the SMP epoch engine's
	// parallel segments rely on.
	hostCtxs []Context

	// home is the VM this hypervisor runs inside (nil for the host).
	home *VM

	// loaded holds every core's loaded context (see loadedCtx); alloc
	// holds the allocation cursors (the h* indices).
	loaded words
	alloc  words
	// vcpus lists the vCPUs of this hypervisor's VMs in creation order,
	// the table loaded-context words index.
	vcpus []*VCPU
	// pendingFwd is the per-physical-core exit queued for forwarding to a
	// guest hypervisor (indexed by arm.CPU.ID).
	pendingFwd []inflight[fwd]
	guestMem   *guestBacking

	// gen counts structural changes anywhere in the stack, kept by the
	// host (see bumpGen).
	gen atomic.Uint64
}

// New creates a hypervisor. parent is nil for the host (L0).
func New(cfg Config, m *machine.Machine, parent *Hypervisor) *Hypervisor {
	level := arm.VLevel(0)
	if parent != nil {
		level = parent.Level + 1
	}
	h := &Hypervisor{
		Cfg:        cfg,
		M:          m,
		Parent:     parent,
		Level:      level,
		loaded:     newWords(2 * len(m.CPUs)),
		alloc:      newWords(numAllocWords),
		pendingFwd: make([]inflight[fwd], len(m.CPUs)),
		hostCtxs:   make([]Context, len(m.CPUs)),
	}
	// Plausible host kernel EL1 context contents (values are opaque, and
	// identical on every core: the host kernel never changes them, so the
	// per-core copies stay byte-identical for the life of the stack).
	for cpu := range h.hostCtxs {
		for i, r := range el1CtxRegs {
			h.hostCtxs[cpu].Set(r, 0x0521_0000+uint64(i))
		}
	}
	return h
}

// IsHost reports whether this hypervisor runs natively at EL2.
func (h *Hypervisor) IsHost() bool { return h.Parent == nil }

// CreateVM builds a VM with the given number of vCPUs pinned to physical
// cores starting at core firstCPU, with ramSize bytes of RAM placed at
// ramBase in this hypervisor's own address space.
func (h *Hypervisor) CreateVM(name string, vcpus, firstCPU int, ramBase mem.Addr, ramSize uint64) *VM {
	vm := &VM{Hyp: h, Name: name, RAMBase: ramBase, RAMSize: ramSize, vio: newWords(numVioWords)}
	for i := 0; i < vcpus; i++ {
		pcpu := h.M.CPUs[firstCPU+i]
		v := &VCPU{VM: vm, ID: i, PCPU: pcpu, st: newWords(numVCPUWords)}
		h.vcpus = append(h.vcpus, v)
		v.Guest = &GuestCtx{CPU: pcpu, VCPU: v}
		// Plausible initial guest EL1 context.
		for j, r := range el1CtxRegs {
			v.EL1.Set(r, 0x9e570000+uint64(i)<<8+uint64(j))
		}
		v.VEL2.Set(arm.VMPIDR_EL2, 0x8000_0000|uint64(i))
		if i == 0 { // the boot vCPU; others come up via PSCI CPU_ON
			v.st.set(vcOnline, 1)
		}
		vm.VCPUs = append(vm.VCPUs, v)
	}
	h.VMs = append(h.VMs, vm)
	return vm
}

// HandleTrap implements arm.Handler for the host role: every exception
// taken to EL2 lands here.
func (h *Hypervisor) HandleTrap(c *arm.CPU, e *arm.Exception) uint64 {
	if !h.IsHost() {
		panic("kvm: guest hypervisor installed as physical EL2 vector")
	}
	return h.handleExit(c, e)
}

// cur returns the loaded context for a core.
func (h *Hypervisor) cur(c *arm.CPU) loadedCtx { return loadedCtx{h, c.ID} }

// RunGuestOS runs fn as the guest OS of vcpu v (a plain VM): the host's
// top-level vcpu run loop. All hypervisor activity during fn happens via
// traps.
func (h *Hypervisor) RunGuestOS(v *VCPU, fn func(g *GuestCtx)) {
	c := v.PCPU
	h.enterSwitch(c, v, modeGuestOS)
	c.RunGuest(h.Level+1, func() { fn(v.Guest) })
	h.exitSwitchCold(c, v)
}

// RunNestedGuestOS runs fn as the OS of the nested VM: the vCPU nv of the
// guest hypervisor's VM, on the physical core that also hosts the
// corresponding L1 vCPU lv. The stack starts "warm": the guest hypervisor
// booted and entered its VM, so hardware holds the nested context.
func (h *Hypervisor) RunNestedGuestOS(lv *VCPU, fn func(g *GuestCtx)) {
	c := lv.PCPU
	nv := lv.nestedVCPU()
	gh := lv.VM.GuestHyp
	gh.cur(c).load(nv, modeGuestOS)
	h.loadNestedState(c, lv)
	h.enterSwitch(c, lv, modeNested)
	c.RunGuest(h.Level+2, func() { fn(nv.Guest) })
	h.exitSwitchCold(c, lv)
}

// RunL3GuestOS runs fn as the OS of the doubly nested (L3) VM, warm-started
// with every level booted: the guest hypervisor (L1) is running its guest
// hypervisor's (L2's) VM (recursive virtualization, Section 6.2).
func (h *Hypervisor) RunL3GuestOS(lv *VCPU, fn func(g *GuestCtx)) {
	c := lv.PCPU
	gh1 := lv.VM.GuestHyp
	nv := lv.nestedVCPU()  // the L2 VM's vCPU, managed by gh1
	gh2 := nv.VM.GuestHyp  // the hypervisor software inside the L2 VM
	nnv := nv.nestedVCPU() // the L3 VM's vCPU, managed by gh2
	if gh2 == nil {
		panic("kvm: RunL3GuestOS without a recursive stack")
	}
	gh2.cur(c).load(nnv, modeGuestOS)
	gh1.cur(c).load(nv, modeNested)
	// Cold-start bookkeeping for gh1: it has entered its VM's nested
	// context (the L3 VM), exactly as its own eret handling would leave it.
	gh1.loadNestedState(c, nv)
	lv.VEL2.Set(arm.HCR_EL2, gh1.runHCR(nv, modeNested))
	lv.VEL2.Set(arm.VTTBR_EL2, gh1.shadowVTTBR(c, nv))
	// Copy register values only: a whole-Context assignment would also
	// replace lv.VirtEL1's JIT tap with nnv.EL1's, misattributing every
	// later tracked access.
	lv.VirtEL1.regs = nnv.EL1.regs
	if lv.Page.Base != 0 {
		for _, r := range vncrEL1Regs {
			lv.PageCtx.Set(r, lv.VirtEL1.Get(r))
		}
		for _, r := range vncrEL2Regs {
			lv.PageCtx.Set(r, lv.VEL2.Get(r))
		}
	}
	h.loadNestedState(c, lv)
	h.enterSwitch(c, lv, modeNested)
	c.RunGuest(h.Level+3, func() { fn(nnv.Guest) })
	h.exitSwitchCold(c, lv)
}

// PreparePeerVM loads vCPU v's guest OS on its core so it can receive
// IPIs while another vCPU drives a benchmark.
func (h *Hypervisor) PreparePeerVM(v *VCPU) {
	h.enterSwitch(v.PCPU, v, modeGuestOS)
}

// PreparePeerNested loads the nested guest of L1 vCPU lv on its core.
func (h *Hypervisor) PreparePeerNested(lv *VCPU) {
	c := lv.PCPU
	gh := lv.VM.GuestHyp
	gh.cur(c).load(lv.nestedVCPU(), modeGuestOS)
	h.loadNestedState(c, lv)
	h.enterSwitch(c, lv, modeNested)
}

// enterSwitch loads a context and runs the entry sequence: the host's
// initial vcpu_load + guest entry.
func (h *Hypervisor) enterSwitch(c *arm.CPU, v *VCPU, mode runMode) {
	lc := h.cur(c)
	lc.load(v, mode)
	h.guestEnterSeq(c, v, mode)
	h.setGuestEnv(c, lc)
}

// nestedVCPU returns the vCPU of the nested VM corresponding to this L1
// vCPU (same index; the benchmark configurations pin 1:1).
func (v *VCPU) nestedVCPU() *VCPU {
	gh := v.VM.GuestHyp
	if gh == nil || len(gh.VMs) == 0 {
		panic("kvm: " + v.String() + " has no nested VM")
	}
	nvm := gh.VMs[0]
	if v.ID >= len(nvm.VCPUs) {
		panic(fmt.Sprintf("kvm: nested VM has no vcpu %d", v.ID))
	}
	return nvm.VCPUs[v.ID]
}

// exitSwitchCold tears down after a guest's code returns (end of workload);
// costs are irrelevant (outside measurement), state must be consistent.
func (h *Hypervisor) exitSwitchCold(c *arm.CPU, v *VCPU) {
	h.cur(c).load(nil, 0)
	c.SetVIRQ(nil)
	c.SetReg(arm.HCR_EL2, 0)
}

// Service delivers pending physical interrupts to the guest loaded on core
// c by running its idle loop briefly: used by cross-core benchmarks to let
// a target core receive an IPI at a deterministic point.
func (h *Hypervisor) Service(c *arm.CPU) {
	lc := h.cur(c)
	v := lc.vcpu()
	if v == nil {
		panic("kvm: Service on idle core")
	}
	level := arm.VLevel(1)
	guest := v.Guest
	if lc.mode() == modeNested {
		level = 2
		guest = v.nestedVCPU().Guest
	}
	c.SetVIRQ(guest)
	c.RunGuest(level, func() { c.Tick(1) })
}

// neveActive reports whether the guest hypervisor inside vm uses NEVE and
// the hardware supports it.
func (h *Hypervisor) neveActive(vm *VM) bool {
	return vm.GuestHyp != nil && vm.GuestHyp.Cfg.NEVE && h.M.CPUs[0].Feat.NV2
}

// AttachGuestHypervisor installs gh as the hypervisor software inside vm
// and prepares virtual EL2 state, deferred access pages, and the nested
// VM's shadow structures. It leaves the stack "booted": the guest
// hypervisor has configured its virtual EL2 and created its own VM.
func (h *Hypervisor) AttachGuestHypervisor(vm *VM, gh *Hypervisor) *VM {
	if gh.Parent != h {
		panic("kvm: guest hypervisor parented elsewhere")
	}
	vm.GuestHyp = gh
	gh.home = vm
	// The nested VM: RAM carved out of vm's own RAM (the guest
	// hypervisor's IPA space), one vCPU per L1 vCPU, same physical cores.
	nestedRAM := GuestRAMIPA + mem.Addr(vm.RAMSize/2)
	nvm := gh.CreateVM(vm.Name+".nested", len(vm.VCPUs), vm.VCPUs[0].PCPU.ID, nestedRAM, vm.RAMSize/4)
	for _, v := range vm.VCPUs {
		// Virtual EL2 initial state, as the guest hypervisor's boot set it.
		v.VEL2.Set(arm.VTTBR_EL2, 0) // programmed at VM entry
		v.VEL2.Set(arm.VBAR_EL2, 0xffff_0000_8000_0000)
		v.VEL2.Set(arm.SCTLR_EL2, 0x30c5_1835)
		v.VEL2.Set(arm.HCR_EL2, h.guestHypHCR(gh))
		v.VEL2.Set(arm.ICH_VTR_EL2, uint64(usedLRs-1))
		if h.M.CPUs[0].Feat.NV2 {
			// The managing hypervisor allocates a deferred access page per
			// vCPU in its own memory and points VNCR_EL2 at it (Section
			// 6.1 workflow).
			v.PageAddr = h.backing().AllocPage()
			machineAddr, ok := h.ownToMachine(v.PageAddr)
			if !ok {
				panic("kvm: deferred access page outside RAM")
			}
			v.Page = core.Page{Base: machineAddr}
			// The allocated page reserves the address space VNCR_EL2 points
			// at; the contents live in the tracked store so deferred accesses
			// stay inside the trace-JIT replay guard.
			h.M.RegisterNV2Page(machineAddr, &v.PageCtx)
		}
		// The guest hypervisor's boot programmed its VM's Stage-2 root.
		v.VEL2.Set(arm.VTTBR_EL2, gh.vmVTTBR(nvm))
		// Nested VM vCPU contexts start from the guest hypervisor's
		// defaults; the virtual EL1 store begins as a copy.
		nv := nvm.VCPUs[v.ID]
		v.VirtEL1.regs = nv.EL1.regs
		if v.Page.Base != 0 {
			// "The host hypervisor populates the deferred access page with
			// initial values of the registers" (Section 6.1).
			for _, r := range vncrEL1Regs {
				v.PageCtx.Set(r, v.VirtEL1.Get(r))
			}
			for _, r := range vncrEL2Regs {
				v.PageCtx.Set(r, v.VEL2.Get(r))
			}
		}
	}
	return nvm
}

// guestHypHCR is the HCR_EL2 value the guest hypervisor itself programs
// (into its virtual HCR_EL2) to run its VM.
func (h *Hypervisor) guestHypHCR(gh *Hypervisor) uint64 {
	hcr := arm.HCRVM | arm.HCRIMO | arm.HCRFMO | arm.HCRTSC
	if gh.Cfg.VHE {
		hcr |= arm.HCRE2H
	}
	return hcr
}
