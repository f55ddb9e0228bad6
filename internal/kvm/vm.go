package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/virtio"
)

// Address-space layout constants. Every VM, at every nesting level, sees
// its RAM at GuestRAMIPA and a paravirtualized I/O device (virtio-mmio
// style) at VirtioBase, which is never mapped in Stage-2 so that accesses
// fault and are emulated by the VM's hypervisor (the Device I/O
// microbenchmark path, Section 5).
const (
	GuestRAMIPA mem.Addr = 0x4000_0000
	VirtioBase  mem.Addr = 0x0a00_0000
	VirtioSize  uint64   = 0x1000
)

// Interrupt ID conventions of the modeled software stack: guests use SGIs
// 0-7 for their IPIs; every hypervisor level uses KickSGI to prod a remote
// CPU into its run loop (the "kick" of KVM).
const (
	MaxGuestSGI = 7
	KickSGI     = 8
)

// VM is one virtual machine managed by a Hypervisor.
type VM struct {
	Hyp  *Hypervisor // the managing hypervisor
	Name string

	// RAMBase is where the VM's RAM at GuestRAMIPA lives in the manager's
	// own address space; RAMSize is its length. Mappings are linear:
	// GuestRAMIPA+x -> RAMBase+x.
	RAMBase mem.Addr
	RAMSize uint64

	VCPUs []*VCPU

	// GuestHyp is the hypervisor software running inside this VM (nil for
	// a plain VM running only an OS).
	GuestHyp *Hypervisor

	// s2 is the Stage-2 table tree the managing hypervisor built for this
	// VM, in the manager's own address space; vmid tags its TLB entries.
	s2   *mmu.Tables
	vmid uint16

	// vio is the virtio device's register file (the vio* indices).
	// virtioOn records that the guest has touched the device; echo is the
	// backend, present once the guest has programmed a queue.
	vio      words
	virtioOn bool
	echo     *virtio.Echo

	// gicShadow backs the read-only Stage-2 mapping of the GICH window
	// under NEVE with a GICv2 interface: reads of the hypervisor control
	// interface hit this page without faulting, writes fault and are
	// emulated — the memory-mapped equivalent of the cached-copy
	// treatment. gicShadowOwn is the manager-space address, gicShadow the
	// machine view for refreshes.
	gicShadowOwn mem.Addr
	gicShadow    mem.Addr
}

// VCPU is one virtual CPU of a VM, pinned to a physical core (the paper's
// benchmark configurations pin vCPUs).
type VCPU struct {
	VM   *VM
	ID   int
	PCPU *arm.CPU

	// EL1 is the vCPU's saved EL1 guest context while it is not loaded on
	// the hardware, maintained by the managing hypervisor.
	EL1 Context

	// VEL2 is the virtual EL2 state when this vCPU runs a guest
	// hypervisor: the trap-and-emulate backing store of Section 4.
	VEL2 Context

	// VirtEL1 is the virtual EL1 state of the vCPU's nested VM while the
	// guest hypervisor runs, maintained in hypervisor memory under
	// ARMv8.3. Under NEVE the deferred access page replaces it.
	VirtEL1 Context

	// Page is the NEVE deferred access page assigned to this vCPU, as a
	// machine-memory view; PageAddr is the same page in the managing
	// hypervisor's own address space (what it programs into VNCR_EL2).
	Page     core.Page
	PageAddr mem.Addr

	// PageCtx is the tracked backing store of the deferred access page:
	// registered with the machine's NV2 page registry under Page.Base, so
	// the NEVE engine's rewritten accesses and the host's page bookkeeping
	// both go through a JIT-tapped register file instead of raw memory (the
	// allocated page remains as address space only). Slots are indexed by
	// register, like every other saved context.
	PageCtx Context

	// pendingVIRQ is the software-pending virtual interrupt queue of the
	// managing hypervisor's virtual distributor; virqTap reports its
	// accesses to an installed trace-JIT engine.
	pendingVIRQ []int
	virqTap     *jit.QueueTap

	// pendingEntry holds an exit the managing hypervisor has forwarded
	// into this vCPU's virtual EL2 vector and that must run when the vCPU
	// is next entered (recursive nesting, Section 6.2).
	pendingEntry inflight[arm.Exception]

	// Guest is the OS/application software of this vCPU (nil when the
	// vCPU's software is a hypervisor, which runs only via vector entry).
	Guest *GuestCtx

	// shadowS2 is the collapsed Stage-2 tree built by the manager when
	// this vCPU runs a nested VM.
	shadowS2 *mmu.Tables

	// st is the vCPU's bookkeeping (the vc* indices).
	st words
}

// Tracked vCPU word indices into VCPU.st.
const (
	// vcDirtyLRs is how many list registers the managing hypervisor's
	// vgic currently considers live and re-programs on entry (KVM only
	// writes used list registers).
	vcDirtyLRs = iota
	// vcInVEL2 is 1 while the guest hypervisor's EL2 environment is
	// projected into the hardware EL1 image.
	vcInVEL2
	// vcOnline is 1 once the vCPU has been powered on (PSCI).
	vcOnline
	// vcX0 is the virtual first argument/return register: MMIO emulation
	// results and PSCI arguments travel through it.
	vcX0
	numVCPUWords
)

// Online reports whether the vCPU has been powered on (PSCI).
func (v *VCPU) Online() bool { return v.st.get(vcOnline) != 0 }

func (v *VCPU) x0() uint64 { return v.st.get(vcX0) }

func (v *VCPU) setX0(x uint64) uint64 {
	v.st.set(vcX0, x)
	return x
}

func (v *VCPU) String() string {
	return fmt.Sprintf("%s/vcpu%d", v.VM.Name, v.ID)
}

// GuestCtx is the execution context handed to guest OS code: it exposes the
// privileged operations the modeled workloads perform and implements the
// virtual IRQ sink (the guest kernel's interrupt vector).
type GuestCtx struct {
	CPU  *arm.CPU
	VCPU *VCPU

	irqHandler func(intid int)

	// IRQCount counts delivered virtual interrupts (used by workloads).
	IRQCount uint64

	// s1 is the guest OS's own Stage-1 page table tree (EnableStage1).
	s1 *mmu.Tables

	// vq is the guest's virtio driver state (VirtioInit).
	vq *virtio.Driver
}

var _ arm.VIRQSink = (*GuestCtx)(nil)

// Work burns n instructions of guest CPU time and services interrupts.
func (g *GuestCtx) Work(n uint64) { g.CPU.Tick(n) }

// Cycles returns the vCPU's cycle counter (the guest's CNTVCT-equivalent
// reading for benchmarks).
func (g *GuestCtx) Cycles() uint64 { return g.CPU.Cycles() }

// Hypercall issues a null hypercall to the vCPU's hypervisor (the
// kvm-unit-test Hypercall microbenchmark path).
func (g *GuestCtx) Hypercall() { g.CPU.HVC(0) }

// DeviceRead reads an emulated device register: the access faults in
// Stage-2 and is emulated by the hypervisor (Device I/O microbenchmark).
func (g *GuestCtx) DeviceRead(off uint64) uint64 {
	return g.CPU.GuestRead(VirtioBase+mem.Addr(off), 4)
}

// DeviceWrite writes an emulated device register.
func (g *GuestCtx) DeviceWrite(off uint64, v uint64) {
	g.CPU.GuestWrite(VirtioBase+mem.Addr(off), 4, v)
}

// RAMRead64 reads guest RAM through Stage-2 translation.
func (g *GuestCtx) RAMRead64(off uint64) uint64 {
	return g.CPU.GuestRead(GuestRAMIPA+mem.Addr(off), 8)
}

// RAMWrite64 writes guest RAM through Stage-2 translation.
func (g *GuestCtx) RAMWrite64(off uint64, v uint64) {
	g.CPU.GuestWrite(GuestRAMIPA+mem.Addr(off), 8, v)
}

// SendIPI sends SGI intid to another vCPU of the same VM via the GIC
// system register interface; the write traps to the hypervisor (Virtual
// IPI microbenchmark, Section 5).
func (g *GuestCtx) SendIPI(target, intid int) {
	if intid > MaxGuestSGI {
		panic(fmt.Sprintf("kvm: guest SGI %d out of range", intid))
	}
	// ICC_SGI1R_EL1 payload: target vCPU in [23:16], INTID in [3:0].
	g.CPU.MSR(arm.ICC_SGI1R_EL1, uint64(target)<<16|uint64(intid))
}

// OnIRQ registers the guest kernel's interrupt handler.
func (g *GuestCtx) OnIRQ(fn func(intid int)) {
	g.irqHandler = fn
}

// HandleVIRQ implements arm.VIRQSink: the guest acknowledges the interrupt
// through the hardware virtual CPU interface, runs its handler, and
// completes the interrupt — without hypervisor involvement (Section 2).
func (g *GuestCtx) HandleVIRQ(c *arm.CPU, intid int) {
	// Delivery runs an arbitrary guest handler (workload closures whose
	// captured state no tracked word expresses), so a recording that
	// reaches it cannot be promoted.
	c.JITPoison()
	got := c.MRS(arm.ICC_IAR1_EL1)
	c.Work(40) // generic kernel IRQ entry/dispatch
	g.IRQCount++
	if g.irqHandler != nil {
		g.irqHandler(int(got))
	}
	c.MSR(arm.ICC_EOIR1_EL1, got)
}
