package x86

import (
	"fmt"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// KVM x86 model: the host hypervisor (Turtles-style multiplexing of nested
// VMs onto the single hardware level) and the same code deprivileged as a
// guest hypervisor whose VMX instructions exit to the host — except for the
// vmread/vmwrite covered by VMCS shadowing.

// Straight-line work constants (calibrated against Table 1's x86 column).
const (
	workDispatch  = 60   // exit reason decode, run loop
	workHypercall = 70   // null hypercall service
	workDeviceEmu = 1100 // virtio backend emulation
	workAPICEmu   = 120  // ICR emulation, vector routing

	// Nested bookkeeping (Turtles): preparing vmcs12 for the guest
	// hypervisor on a forward, and merging vmcs12 into vmcs02 on resume.
	// A full-state forward/merge walks and validates every field; the
	// injection-only path (interrupt delivery) uses dirty-field tracking
	// and is far cheaper — which is why Virtual IPI adds only ~9k cycles
	// over Hypercall despite 4 more exits (Table 1).
	workForwardFull   = 11600
	workMergeFull     = 12300
	workForwardInject = 1500
	workMergeInject   = 1500
	workEmuLight      = 1600 // unshadowed vmwrite / MSR-write emulation
)

// DeviceBase is the emulated device window (unmapped in the EPT).
const DeviceBase mem.Addr = 0x0c00_0000

// Config selects the hypervisor build.
type Config struct {
	Name string
	// Shadowing enables VMCS shadowing for guest hypervisors (the paper's
	// x86 hardware includes it; Section 5).
	Shadowing bool
}

type runMode int

const (
	modeGuest  runMode = iota // a plain VM's OS
	modeL1                    // the guest hypervisor
	modeNested                // the nested VM
)

type loadedCtx struct {
	vcpu *VCPU
	mode runMode
	// fullDirty notes that the last forward carried full exit state, so
	// the next vmresume needs a full merge.
	fullDirty bool
	// lightEntry marks an injection-only handling round: the entry path
	// skips timer and EPT reprogramming (KVM's interrupt fast path).
	lightEntry bool
	// skipRIP marks a context transfer (vmresume merge): the next entry
	// resumes a different context whose RIP the merge already set.
	skipRIP bool
}

// fwd is an exit queued for forwarding to a guest hypervisor; a nil child
// means none is queued.
type fwd struct {
	child *Hypervisor
	exit  Exit
}

// VM is one virtual machine.
type VM struct {
	Hyp      *Hypervisor
	Name     string
	VCPUs    []*VCPU
	GuestHyp *Hypervisor

	// ept is the VM's EPT tree in the manager's address space; ramBase and
	// ramSize describe its RAM window in machine memory.
	ept     *mmu.Tables
	ramBase mem.Addr
	ramSize uint64
}

// VCPU is one virtual CPU pinned to a physical core.
type VCPU struct {
	VM   *VM
	ID   int
	PCPU *CPU

	// vmcs is the hardware VMCS the host uses to run this vcpu (vmcs01;
	// doubles as the merged vmcs02 while the nested VM runs).
	vmcs VMCS
	// vmcs12 is, for a vcpu running a guest hypervisor, the VMCS the
	// guest hypervisor manages — the shadow VMCS target.
	vmcs12 VMCS

	pending []int
	Guest   *GuestCtx
	x0      uint64

	// injectVec is the pending VM_ENTRY_INTR_INFO payload the hypervisor
	// writes on its next entry (valid bit 31 | vector).
	injectVec uint64

	// shadowEPT is the collapsed EPT tree built when this vCPU runs a
	// nested VM (Turtles).
	shadowEPT *mmu.Tables
}

func (v *VCPU) String() string { return fmt.Sprintf("%s/vcpu%d", v.VM.Name, v.ID) }

// GuestCtx is the guest OS execution context, mirroring the ARM side's API
// so the workload models run unchanged on both architectures.
type GuestCtx struct {
	CPU  *CPU
	VCPU *VCPU

	irqHandler func(vector int)
}

var _ IRQSink = (*GuestCtx)(nil)

// Work burns guest instructions and services interrupts.
func (g *GuestCtx) Work(n uint64) { g.CPU.Tick(n) }

// Cycles returns the vCPU's cycle counter.
func (g *GuestCtx) Cycles() uint64 { return g.CPU.Cycles() }

// Hypercall performs a null vmcall.
func (g *GuestCtx) Hypercall() { g.CPU.VMCall(0) }

// DeviceRead reads the emulated device (EPT-violation exit).
func (g *GuestCtx) DeviceRead(off uint64) uint64 {
	return g.CPU.MMIORead(DeviceBase + mem.Addr(off))
}

// RAMRead64 reads guest RAM through the EPT.
func (g *GuestCtx) RAMRead64(off uint64) uint64 {
	return g.CPU.GuestRead(GuestRAMBase+mem.Addr(off), 8)
}

// RAMWrite64 writes guest RAM through the EPT.
func (g *GuestCtx) RAMWrite64(off uint64, v uint64) {
	g.CPU.GuestWrite(GuestRAMBase+mem.Addr(off), 8, v)
}

// SendIPI sends an IPI through the local APIC ICR.
func (g *GuestCtx) SendIPI(target, vector int) { g.CPU.APICWriteICR(target, vector) }

// OnIRQ installs an interrupt observer (nil removes it).
func (g *GuestCtx) OnIRQ(fn func(vector int)) { g.irqHandler = fn }

// HandleIRQ implements IRQSink: APICv delivers, the guest handles and EOIs
// without an exit.
func (g *GuestCtx) HandleIRQ(c *CPU, vector int) {
	c.Work(40)
	if g.irqHandler != nil {
		g.irqHandler(vector)
	}
	c.EOI()
}

// Hypervisor is the KVM x86 model, serving as host (root-mode handler) or
// guest hypervisor (entered via VectorEntry).
type Hypervisor struct {
	Cfg    Config
	Mem    *mem.Memory
	CPUs   []*CPU
	Parent *Hypervisor
	Level  int

	VMs    []*VM
	loaded []loadedCtx

	// pendingFwd is held by value so a forwarded exit never allocates.
	pendingFwd fwd
}

// New creates a hypervisor; parent nil means host.
func New(cfg Config, m *mem.Memory, cpus []*CPU, parent *Hypervisor) *Hypervisor {
	level := 0
	if parent != nil {
		level = parent.Level + 1
	}
	return &Hypervisor{
		Cfg: cfg, Mem: m, CPUs: cpus, Parent: parent, Level: level,
		loaded: make([]loadedCtx, len(cpus)),
	}
}

// IsHost reports whether this hypervisor runs in root mode.
func (h *Hypervisor) IsHost() bool { return h.Parent == nil }

// CreateVM builds a VM with one vCPU per core starting at firstCPU.
func (h *Hypervisor) CreateVM(name string, vcpus, firstCPU int) *VM {
	vm := &VM{Hyp: h, Name: name}
	for i := 0; i < vcpus; i++ {
		pcpu := h.CPUs[firstCPU+i]
		v := &VCPU{VM: vm, ID: i, PCPU: pcpu, vmcs: NewVMCS(h.Mem)}
		v.Guest = &GuestCtx{CPU: pcpu, VCPU: v}
		vm.VCPUs = append(vm.VCPUs, v)
	}
	h.VMs = append(h.VMs, vm)
	return vm
}

// AttachGuestHypervisor installs gh inside vm and creates its nested VM.
func (h *Hypervisor) AttachGuestHypervisor(vm *VM, gh *Hypervisor) *VM {
	if gh.Parent != h {
		panic("x86: guest hypervisor parented elsewhere")
	}
	vm.GuestHyp = gh
	nvm := gh.CreateVM(vm.Name+".nested", len(vm.VCPUs), vm.VCPUs[0].PCPU.ID)
	for _, v := range vm.VCPUs {
		v.vmcs12 = NewVMCS(h.Mem)
	}
	return nvm
}

// HandleExit implements Handler for the host role.
func (h *Hypervisor) HandleExit(c *CPU, e *Exit) uint64 {
	if !h.IsHost() {
		panic("x86: guest hypervisor installed as root handler")
	}
	return h.handleExit(c, e)
}

func (h *Hypervisor) cur(c *CPU) *loadedCtx { return &h.loaded[c.ID] }

// handleExit is the KVM exit path, shared by host and guest roles.
func (h *Hypervisor) handleExit(c *CPU, e *Exit) uint64 {
	lc := h.cur(c)
	v := lc.vcpu
	if v == nil {
		panic(fmt.Sprintf("x86[%s]: exit %s with no vcpu on cpu%d", h.Cfg.Name, e.Reason, c.ID))
	}
	h.readExitInfo(c, e)
	c.Work(workDispatch)
	ret := h.dispatch(c, lc, e)
	h.prepareEntry(c, lc)
	if f := h.pendingFwd; f.child != nil {
		h.pendingFwd = fwd{}
		c.RunGuest(h.Level+1, func() { f.child.VectorEntry(c, &f.exit) })
		return v.nestedVCPU().x0
	}
	h.resume(c)
	return ret
}

// VectorEntry is the guest hypervisor's exit handler entry.
func (h *Hypervisor) VectorEntry(c *CPU, e *Exit) {
	h.handleExit(c, e)
}

// readExitInfo models KVM's vmreads of the exit information; for a guest
// hypervisor these go to the shadow VMCS without exiting.
func (h *Hypervisor) readExitInfo(c *CPU, e *Exit) {
	_ = c.VMRead(ExitReason)
	_ = c.VMRead(ExitQualification)
	_ = c.VMRead(GuestRIP)
	_ = c.VMRead(GuestRSP)
	_ = c.VMRead(GuestRFLAGS)
	_ = c.VMRead(ExitIntrInfo)
	_ = c.VMRead(IdtVectoringInfo)
	if e.Reason == ExitEPTViolation {
		_ = c.VMRead(GuestPhysicalAddress)
	}
	c.MemOp(8)
}

// prepareEntry models KVM's per-entry VMCS updates. The writes to fields
// outside the shadow bitmap are what still exit under VMCS shadowing
// (Table 7: 5 traps for a nested hypercall). Injection-only rounds (the
// interrupt fast path) skip timer and EPT reprogramming, which is why
// Virtual IPI adds few exits per side.
func (h *Hypervisor) prepareEntry(c *CPU, lc *loadedCtx) {
	v := lc.vcpu
	if lc.skipRIP {
		lc.skipRIP = false
		c.MemOp(1)
	} else {
		c.VMWrite(GuestRIP, c.VMRead(GuestRIP)+3)
	}
	c.VMWrite(VMEntryIntrInfo, v.injectVec) // unshadowed: exits when deprivileged
	v.injectVec = 0
	if !lc.lightEntry {
		c.WrMSR(0x6e0, c.Cycles()+1_000_000)   // IA32_TSC_DEADLINE: exits
		c.VMWrite(EPTPointer, h.entryEPTP(lc)) // unshadowed: exits
	}
	lc.lightEntry = false
	c.MemOp(6)
}

// entryEPTP is the EPT root the hypervisor programs for the context being
// entered: the VM's own tree, or the collapsed shadow for a nested VM.
func (h *Hypervisor) entryEPTP(lc *loadedCtx) uint64 {
	v := lc.vcpu
	switch lc.mode {
	case modeNested:
		if v.shadowEPT == nil {
			v.shadowEPT = mmu.NewTables(h.Mem)
		}
		return uint64(v.shadowEPT.Root)
	default:
		if v.VM.ept == nil {
			h.initVMEPT(v.VM)
		}
		return uint64(v.VM.ept.Root)
	}
}

// resume returns to the guest: the host's return happens in the exit
// epilogue; a guest hypervisor executes vmresume, which exits to its
// parent.
func (h *Hypervisor) resume(c *CPU) {
	if !h.IsHost() {
		c.VMResume()
	}
}

func (v *VCPU) nestedVCPU() *VCPU {
	gh := v.VM.GuestHyp
	if gh == nil || len(gh.VMs) == 0 {
		panic("x86: " + v.String() + " has no nested VM")
	}
	return gh.VMs[0].VCPUs[v.ID]
}

func (h *Hypervisor) dispatch(c *CPU, lc *loadedCtx, e *Exit) uint64 {
	switch lc.mode {
	case modeGuest:
		return h.dispatchGuest(c, lc, e)
	case modeNested:
		if e.Reason == ExitEPTViolation &&
			!(e.Addr >= DeviceBase && uint64(e.Addr-DeviceBase) < 0x1000) &&
			h.fixShadowEPTFault(c, lc.vcpu, e.Addr) {
			return h.replayEPT(c, lc.vcpu, e)
		}
		h.forward(c, lc, e)
		return 0
	case modeL1:
		return h.dispatchL1(c, lc, e)
	default:
		panic("x86: exit in unknown mode")
	}
}

// dispatchGuest handles exits from a plain VM's OS (also used by the guest
// hypervisor for its own VM's exits).
func (h *Hypervisor) dispatchGuest(c *CPU, lc *loadedCtx, e *Exit) uint64 {
	v := lc.vcpu
	switch e.Reason {
	case ExitVMCall:
		c.Work(workHypercall)
		return 0
	case ExitEPTViolation:
		if e.Addr >= DeviceBase && uint64(e.Addr-DeviceBase) < 0x1000 {
			c.Work(workDeviceEmu)
			v.x0 = uint64(e.Addr) ^ 0xd1ce
			return v.x0
		}
		if h.fixEPTFault(c, v, e.Addr) {
			return h.replayEPT(c, v, e)
		}
		panic(fmt.Sprintf("x86[%s]: unhandled EPT violation at %#x", h.Cfg.Name, uint64(e.Addr)))
	case ExitAPICWrite:
		h.sendVIPI(c, v.VM, int(e.Val), e.Vector)
		return 0
	case ExitExternalInt:
		h.handleExtInt(c, lc, e.Vector)
		return 0
	case ExitHLT:
		return 0
	default:
		panic(fmt.Sprintf("x86[%s]: unhandled guest exit %s", h.Cfg.Name, e.Reason))
	}
}

// dispatchL1 handles the guest hypervisor's own exits: the trapped VMX
// instructions and MSR accesses the shadow VMCS does not cover.
func (h *Hypervisor) dispatchL1(c *CPU, lc *loadedCtx, e *Exit) uint64 {
	v := lc.vcpu
	switch e.Reason {
	case ExitVMResume:
		h.merge(c, lc)
		return 0
	case ExitVMWrite:
		c.Work(workEmuLight)
		v.vmcs12.Write(h.Mem, e.Field, e.Val)
		c.MemOp(2)
		return 0
	case ExitVMRead:
		c.Work(workEmuLight)
		c.MemOp(2)
		return v.vmcs12.Read(h.Mem, e.Field)
	case ExitVMPtrLd:
		c.Work(workEmuLight)
		return 0
	case ExitMSRWrite:
		c.Work(workEmuLight)
		return 0
	case ExitAPICWrite:
		// The guest hypervisor kicks another physical CPU.
		h.sendVIPI(c, v.VM, int(e.Val), e.Vector)
		return 0
	case ExitExternalInt:
		h.handleExtInt(c, lc, e.Vector)
		return 0
	case ExitVMCall:
		c.Work(workHypercall)
		return 0
	default:
		panic(fmt.Sprintf("x86[%s]: unhandled L1 exit %s", h.Cfg.Name, e.Reason))
	}
}

// forward delivers a nested VM exit into the guest hypervisor: sync the
// hardware (vmcs02) exit state into vmcs12, enable shadowing, and enter the
// guest hypervisor (Turtles).
func (h *Hypervisor) forward(c *CPU, lc *loadedCtx, e *Exit) {
	v := lc.vcpu
	gh := v.VM.GuestHyp
	if gh == nil {
		panic("x86: forward with no guest hypervisor")
	}
	full := e.Reason != ExitExternalInt
	if full {
		c.Work(workForwardFull)
		// Copy the coalesced guest state and exit info into vmcs12.
		v.vmcs12.CopyRun(h.Mem, v.vmcs, guestStateFirst, guestStateLast)
		c.MemOp(uint64(2 * len(guestStateFields)))
	} else {
		c.Work(workForwardInject)
	}
	// The exit information, minus VMInstructionError between its two runs.
	v.vmcs12.CopyRun(h.Mem, v.vmcs, ExitReason, GuestPhysicalAddress)
	v.vmcs12.CopyRun(h.Mem, v.vmcs, ExitIntrInfo, IdtVectoringInfo)
	v.vmcs12.Write(h.Mem, ExitReason, uint64(e.Reason))
	c.MemOp(10)
	c.SetShadow(h.Cfg.Shadowing, v.vmcs12, DefaultShadowBitmap())
	lc.mode = modeL1
	lc.fullDirty = full
	h.pendingFwd = fwd{child: gh, exit: *e}
	c.SetGuestLevel(h.Level + 1)
}

// merge handles the guest hypervisor's vmresume: fold vmcs12 changes into
// the hardware vmcs02 and run the nested VM.
func (h *Hypervisor) merge(c *CPU, lc *loadedCtx) {
	v := lc.vcpu
	if lc.fullDirty {
		c.Work(workMergeFull)
		v.vmcs.CopyRun(h.Mem, v.vmcs12, guestStateFirst, guestStateLast)
		c.MemOp(uint64(2 * len(guestStateFields)))
	} else {
		c.Work(workMergeInject)
		v.vmcs.Write(h.Mem, VMEntryIntrInfo, v.vmcs12.Read(h.Mem, VMEntryIntrInfo))
		c.MemOp(2)
	}
	// Deliver any interrupt the guest hypervisor injected.
	if info := v.vmcs.Read(h.Mem, VMEntryIntrInfo); info&(1<<31) != 0 {
		c.PostInterrupt(int(info & 0xff))
		v.vmcs.Write(h.Mem, VMEntryIntrInfo, 0)
	}
	c.SetShadow(false, VMCS{}, nil)
	lc.mode = modeNested
	lc.fullDirty = false
	lc.skipRIP = true
	c.SetGuestLevel(h.Level + 2)
	c.IRQ = v.nestedVCPU().Guest
}

// replayEPT re-executes a repaired guest memory access.
func (h *Hypervisor) replayEPT(c *CPU, v *VCPU, e *Exit) uint64 {
	eptp := mem.Addr(v.vmcs.Read(h.Mem, EPTPointer))
	resolver := c.EPT
	if resolver == nil {
		panic("x86: replay without EPT resolver")
	}
	pa, ok := resolver.Translate(eptp, e.Addr, e.Write)
	if !ok {
		panic(fmt.Sprintf("x86[%s]: replay of unmapped %#x", h.Cfg.Name, uint64(e.Addr)))
	}
	if e.Write {
		c.MemOp(1)
		h.Mem.MustWrite64(pa, e.Val)
		return 0
	}
	c.MemOp(1)
	return h.Mem.MustRead64(pa)
}

// sendVIPI emulates an ICR write: queue the vector on the target vCPU and
// kick its core.
func (h *Hypervisor) sendVIPI(c *CPU, vm *VM, target, vector int) {
	c.Work(workAPICEmu)
	if target < 0 || target >= len(vm.VCPUs) {
		panic(fmt.Sprintf("x86[%s]: IPI to nonexistent vcpu %d", h.Cfg.Name, target))
	}
	tv := vm.VCPUs[target]
	if tv.PCPU == c {
		tv.pending = append(tv.pending, vector)
		return
	}
	if !h.IsHost() {
		tv.pending = append(tv.pending, vector)
		c.APICWriteICR(tv.PCPU.ID, kickVector)
		return
	}
	c.AddCycles(c.Cost.APICAccess)
	lc := h.cur(tv.PCPU)
	if lc.vcpu == tv && lc.mode == modeGuest {
		// APICv posted interrupt: the notification delivers the vector
		// directly into the running guest without a VM exit — the reason
		// the x86 VM Virtual IPI costs only ~2.7k cycles (Table 1).
		tv.PCPU.PostInterrupt(vector)
		tv.PCPU.AddCycles(c.Cost.IPIWire)
		return
	}
	tv.pending = append(tv.pending, vector)
	tv.PCPU.AssertIRQ(kickVector)
	tv.PCPU.AddCycles(c.Cost.IPIWire)
}

// kickVector is the reschedule vector hypervisors use to prod remote cores.
const kickVector = 0xf2

// MinDeviceVector is the first vector used for device interrupts.
const MinDeviceVector = 0x50

// handleExtInt handles a physical interrupt exit: the host delivers
// pending virtual interrupts via posted interrupts; a guest hypervisor
// queues a VM_ENTRY_INTR_INFO injection, which its entry path writes (one
// trapped vmwrite) and the host's merge turns into a posted delivery.
func (h *Hypervisor) handleExtInt(c *CPU, lc *loadedCtx, vector int) {
	c.Work(workAPICEmu)
	lc.lightEntry = true
	if vector >= MinDeviceVector && vector != kickVector {
		// Device interrupt: backend processing before injection.
		c.Work(workDeviceEmu)
		lc.vcpu.pending = append(lc.vcpu.pending, vector)
	}
	v := lc.vcpu
	if h.IsHost() {
		for _, p := range v.pending {
			c.PostInterrupt(p)
		}
		v.pending = v.pending[:0]
		return
	}
	for _, p := range v.pending {
		v.injectVec = 1<<31 | uint64(p)
	}
	v.pending = v.pending[:0]
}

// dispatchNested-side external interrupts: when a nested VM is interrupted
// by the guest hypervisor's kick, the exit is forwarded (modeNested handled
// in dispatch); the guest hypervisor's handler injects.

// Stack assembles a virtualization stack (mirrors the ARM side).
type Stack struct {
	Mem      *mem.Memory
	CPUs     []*CPU
	Trace    *trace.Collector
	Host     *Hypervisor
	VM       *VM
	GuestHyp *Hypervisor
	NestedVM *VM
}

// StackOptions selects the configuration.
type StackOptions struct {
	CPUs        int
	Nested      bool
	Shadowing   bool
	RecordTrace bool
}

// NewStack builds a machine and stack.
func NewStack(opts StackOptions) *Stack {
	if opts.CPUs == 0 {
		opts.CPUs = 2
	}
	m := mem.New(0)
	tr := trace.NewCollector(opts.RecordTrace)
	s := &Stack{Mem: m, Trace: tr}
	for i := 0; i < opts.CPUs; i++ {
		c := NewCPU(i, m)
		c.Trace = tr
		s.CPUs = append(s.CPUs, c)
	}
	s.Host = New(Config{Name: "L0", Shadowing: opts.Shadowing}, m, s.CPUs, nil)
	ept := newEPTContext(m)
	for _, c := range s.CPUs {
		c.Vector = s.Host
		c.EPT = ept
	}
	s.VM = s.Host.CreateVM("vm", opts.CPUs, 0)
	s.Host.initVMEPT(s.VM)
	if opts.Nested {
		gh := New(Config{Name: "L1", Shadowing: false}, m, s.CPUs, s.Host)
		s.GuestHyp = gh
		s.NestedVM = s.Host.AttachGuestHypervisor(s.VM, gh)
		gh.initVMEPT(s.NestedVM)
		for _, lv := range s.VM.VCPUs {
			// The guest hypervisor programmed its VM's EPT root into its
			// VMCS (vmcs12); the host starts the nested VM on an empty
			// shadow, populated on faults.
			lv.vmcs12.Write(m, EPTPointer, uint64(s.NestedVM.ept.Root))
			lv.shadowEPT = mmu.NewTables(m)
			lv.vmcs.Write(m, EPTPointer, uint64(lv.shadowEPT.Root))
		}
	}
	return s
}

// RunGuest runs fn as the innermost guest OS on vcpu i.
func (s *Stack) RunGuest(i int, fn func(g *GuestCtx)) {
	c := s.CPUs[i]
	if s.GuestHyp == nil {
		v := s.VM.VCPUs[i]
		s.Host.loaded[c.ID] = loadedCtx{vcpu: v, mode: modeGuest}
		c.VMPtrLoad(v.vmcs)
		c.IRQ = v.Guest
		c.RunGuest(1, func() { fn(v.Guest) })
		return
	}
	lv := s.VM.VCPUs[i]
	nv := lv.nestedVCPU()
	s.Host.loaded[c.ID] = loadedCtx{vcpu: lv, mode: modeNested}
	s.GuestHyp.loaded[c.ID] = loadedCtx{vcpu: nv, mode: modeGuest}
	c.VMPtrLoad(lv.vmcs)
	c.IRQ = nv.Guest
	c.RunGuest(2, func() { fn(nv.Guest) })
}

// LoadTarget prepares vcpu i's innermost guest on its core to receive IPIs
// (the benchmark's receiver side).
func (s *Stack) LoadTarget(i int) *GuestCtx {
	c := s.CPUs[i]
	if s.GuestHyp == nil {
		v := s.VM.VCPUs[i]
		s.Host.loaded[c.ID] = loadedCtx{vcpu: v, mode: modeGuest}
		c.VMPtrLoad(v.vmcs)
		c.IRQ = v.Guest
		c.SetGuestLevel(1)
		return v.Guest
	}
	lv := s.VM.VCPUs[i]
	nv := lv.nestedVCPU()
	s.Host.loaded[c.ID] = loadedCtx{vcpu: lv, mode: modeNested}
	s.GuestHyp.loaded[c.ID] = loadedCtx{vcpu: nv, mode: modeGuest}
	c.VMPtrLoad(lv.vmcs)
	c.IRQ = nv.Guest
	c.SetGuestLevel(2)
	return nv.Guest
}

// Service lets core i take pending physical interrupts.
func (s *Stack) Service(i int) {
	c := s.CPUs[i]
	level := 1
	if s.GuestHyp != nil {
		level = 2
	}
	c.RunGuest(level, func() { c.Tick(1) })
}
