package x86

import (
	"fmt"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/trace"
)

// CostModel is the calibrated micro-cost set for the x86 comparator,
// sized so the single-level VM microbenchmarks land near Table 1's x86
// column (Hypercall 1188, Device I/O 2307, Virtual IPI 2751, EOI 316).
type CostModel struct {
	// VMExitHW / VMEntryHW: the hardware's bulk save/restore of guest
	// state through the VMCS on each transition. This single coalesced
	// operation is the architectural difference from ARM (Section 8).
	VMExitHW  uint64
	VMEntryHW uint64
	// VMInsn is a non-exiting vmread/vmwrite (shadowed or in root mode).
	VMInsn uint64
	// Mem is a cached memory access.
	Mem uint64
	// Insn is one instruction of straight-line work.
	Insn uint64
	// APICAccess is a virtualized APIC access (APICv): the Virtual EOI
	// cost of Table 1.
	APICAccess uint64
	// APICVirt is the hardware's posted-interrupt delivery cost.
	APICVirt uint64
	// IPIWire is the physical IPI propagation delay.
	IPIWire uint64
}

// DefaultCosts returns the calibration used for all experiments.
func DefaultCosts() *CostModel {
	return &CostModel{
		VMExitHW:   410,
		VMEntryHW:  410,
		VMInsn:     25,
		Mem:        4,
		Insn:       1,
		APICAccess: 316,
		APICVirt:   120,
		IPIWire:    160,
	}
}

// ExitReasonCode is a VMX exit reason.
type ExitReasonCode int

const (
	ExitVMCall ExitReasonCode = iota
	ExitVMRead
	ExitVMWrite
	ExitVMPtrLd
	ExitVMResume
	ExitEPTViolation
	ExitExternalInt
	ExitMSRWrite
	ExitAPICWrite
	ExitHLT
)

func (r ExitReasonCode) String() string {
	switch r {
	case ExitVMCall:
		return "vmcall"
	case ExitVMRead:
		return "vmread"
	case ExitVMWrite:
		return "vmwrite"
	case ExitVMPtrLd:
		return "vmptrld"
	case ExitVMResume:
		return "vmresume"
	case ExitEPTViolation:
		return "ept-violation"
	case ExitExternalInt:
		return "external-interrupt"
	case ExitMSRWrite:
		return "msr-write"
	case ExitAPICWrite:
		return "apic-write"
	case ExitHLT:
		return "hlt"
	default:
		return fmt.Sprintf("exit(%d)", int(r))
	}
}

// Exit describes one VM exit to root mode.
type Exit struct {
	Reason ExitReasonCode
	Field  Field    // for vmread/vmwrite exits
	Val    uint64   // written value / vmcall argument
	Addr   mem.Addr // EPT violation address
	Write  bool
	Vector int // external interrupt vector
}

// maxExitDepth is the number of pooled Exit slots per core; deeper
// re-entrant exits fall back to heap allocation.
const maxExitDepth = 16

// Handler handles VM exits in root mode: the host hypervisor.
type Handler interface {
	HandleExit(c *CPU, e *Exit) uint64
}

// IRQSink receives virtual interrupt delivery into the running guest.
type IRQSink interface {
	HandleIRQ(c *CPU, vector int)
}

// CPU is one simulated x86 core with VT-x.
type CPU struct {
	ID   int
	Mem  *mem.Memory
	Cost *CostModel

	Trace  *trace.Collector
	Vector Handler
	IRQ    IRQSink

	// HookExit, when non-nil, observes every VM exit after it is recorded
	// and before the root-mode handler runs (the fault layer's injector
	// and trap-storm watchdog); HookTick observes every Tick. Both are nil
	// in all normal runs, costing the hot path one nil check.
	HookExit func(c *CPU, e *Exit)
	HookTick func(c *CPU, n uint64)

	nonRoot    bool
	level      int
	guestLevel int

	// current is the hardware current-VMCS pointer.
	current VMCS
	// shadow configuration, loaded by the host before entering a guest
	// hypervisor (VMCS shadowing, Section 8).
	shadowEnabled bool
	shadowVMCS    VMCS
	shadowed      *[NumFields]bool

	// EPT resolves guest physical addresses (installed by the machine).
	EPT EPTResolver

	// posted are virtual interrupt vectors awaiting delivery (APICv).
	posted []int
	// pendingIRQ are physical interrupts pending on the core.
	pendingIRQ []int
	inIRQ      bool

	cycles uint64

	// exitPool backs the Exit records passed to root-mode handlers: one
	// slot per re-entrant exit depth, so the hot path never allocates.
	exitPool  [maxExitDepth]Exit
	exitDepth int

	// levelCycles attributes elapsed cycles to the virtualization level
	// that spent them (0 = host hypervisor); lastAttributed marks the
	// cycle count at the previous attribution point. Mirrors the ARM
	// core's attribution so both architectures expose the same breakdown.
	levelCycles    [8]uint64
	lastAttributed uint64
}

// NewCPU returns a core attached to m.
func NewCPU(id int, m *mem.Memory) *CPU {
	return &CPU{ID: id, Mem: m, Cost: DefaultCosts()}
}

// Cycles returns the cycle counter.
func (c *CPU) Cycles() uint64 { return c.cycles }

// attribute charges the cycles elapsed since the last attribution point to
// the level that was running.
func (c *CPU) attribute(level int) {
	if level >= 0 && level < len(c.levelCycles) {
		c.levelCycles[level] += c.cycles - c.lastAttributed
	}
	c.lastAttributed = c.cycles
}

// LevelCycles returns how many cycles each virtualization level has spent
// on this core (0 = root mode, 1 = guest hypervisor or VM, 2 = nested VM):
// the per-level breakdown behind the exit multiplication comparison.
func (c *CPU) LevelCycles() []uint64 {
	c.attribute(c.level)
	out := make([]uint64, len(c.levelCycles))
	copy(out, c.levelCycles[:])
	return out
}

// ResetLevelCycles clears the per-level attribution.
func (c *CPU) ResetLevelCycles() {
	c.levelCycles = [8]uint64{}
	c.lastAttributed = c.cycles
}

// AddCycles charges raw cycles.
func (c *CPU) AddCycles(n uint64) { c.cycles += n }

// Work charges n instructions.
func (c *CPU) Work(n uint64) { c.cycles += n * c.Cost.Insn }

// MemOp charges n memory accesses.
func (c *CPU) MemOp(n uint64) { c.cycles += n * c.Cost.Mem }

// InRoot reports whether the core runs in root mode.
func (c *CPU) InRoot() bool { return !c.nonRoot }

// Level returns the running software's virtualization level (tracing).
func (c *CPU) Level() int { return c.level }

// SetGuestLevel records the level of the prepared guest context.
func (c *CPU) SetGuestLevel(l int) {
	c.guestLevel = l
	if c.nonRoot {
		c.attribute(c.level)
		c.level = l
	}
}

// CurrentVMCS returns the hardware current-VMCS pointer.
func (c *CPU) CurrentVMCS() VMCS { return c.current }

// SetShadow configures VMCS shadowing for the next guest (root mode only).
func (c *CPU) SetShadow(enabled bool, shadow VMCS, bitmap *[NumFields]bool) {
	if c.nonRoot {
		panic("x86: SetShadow in non-root mode")
	}
	c.shadowEnabled = enabled
	c.shadowVMCS = shadow
	c.shadowed = bitmap
}

// VMPtrLoad sets the current-VMCS pointer. From non-root mode it exits.
func (c *CPU) VMPtrLoad(v VMCS) {
	if c.nonRoot {
		c.exitE(Exit{Reason: ExitVMPtrLd, Val: uint64(v.Base)})
		return
	}
	c.cycles += c.Cost.VMInsn
	c.current = v
}

// VMRead reads a VMCS field: directly in root mode; via the shadow VMCS
// without exiting when shadowing covers the field; otherwise a VM exit.
func (c *CPU) VMRead(f Field) uint64 {
	if !c.nonRoot {
		c.cycles += c.Cost.VMInsn
		return c.current.Read(c.Mem, f)
	}
	if c.shadowEnabled && c.shadowed[f] {
		c.cycles += c.Cost.VMInsn
		return c.shadowVMCS.Read(c.Mem, f)
	}
	return c.exitE(Exit{Reason: ExitVMRead, Field: f})
}

// VMWrite writes a VMCS field; exit rules as VMRead.
func (c *CPU) VMWrite(f Field, v uint64) {
	if !c.nonRoot {
		c.cycles += c.Cost.VMInsn
		c.current.Write(c.Mem, f, v)
		return
	}
	if c.shadowEnabled && c.shadowed[f] {
		c.cycles += c.Cost.VMInsn
		c.shadowVMCS.Write(c.Mem, f, v)
		return
	}
	c.exitE(Exit{Reason: ExitVMWrite, Field: f, Val: v, Write: true})
}

// VMCall is the guest-to-hypervisor hypercall.
func (c *CPU) VMCall(arg uint64) uint64 {
	if !c.nonRoot {
		panic("x86: VMCall in root mode")
	}
	return c.exitE(Exit{Reason: ExitVMCall, Val: arg})
}

// VMResume is a guest hypervisor resuming its VM; it always exits to the
// host hypervisor (Turtles multiplexing).
func (c *CPU) VMResume() {
	if !c.nonRoot {
		panic("x86: host VMResume is modeled by RunGuest")
	}
	c.exitE(Exit{Reason: ExitVMResume})
}

// WrMSR models an intercepted MSR write (timer deadline etc.).
func (c *CPU) WrMSR(msr uint32, v uint64) {
	if !c.nonRoot {
		c.cycles += c.Cost.VMInsn
		return
	}
	c.exitE(Exit{Reason: ExitMSRWrite, Field: Field(msr), Val: v, Write: true})
}

// MMIORead models a device read; device windows are unmapped in the EPT
// and cause an EPT-violation exit emulated by the hypervisor.
func (c *CPU) MMIORead(addr mem.Addr) uint64 {
	if !c.nonRoot {
		c.cycles += c.Cost.Mem
		return c.Mem.MustRead64(addr)
	}
	return c.exitE(Exit{Reason: ExitEPTViolation, Addr: addr})
}

// EPT resolves guest physical addresses for non-root accesses; the
// hypervisor model installs it.
type EPTResolver interface {
	Translate(eptp mem.Addr, gpa mem.Addr, write bool) (mem.Addr, bool)
}

// GuestRead reads guest physical memory through the EPT; misses exit with
// an EPT violation the hypervisor repairs or emulates.
func (c *CPU) GuestRead(gpa mem.Addr, size int) uint64 {
	if !c.nonRoot || c.EPT == nil {
		c.cycles += c.Cost.Mem
		return c.Mem.MustRead64(gpa)
	}
	eptp := mem.Addr(c.current.Read(c.Mem, EPTPointer))
	if pa, ok := c.EPT.Translate(eptp, gpa, false); ok {
		c.cycles += c.Cost.Mem
		return c.Mem.MustRead64(pa)
	}
	return c.exitE(Exit{Reason: ExitEPTViolation, Addr: gpa})
}

// GuestWrite writes guest physical memory through the EPT.
func (c *CPU) GuestWrite(gpa mem.Addr, size int, v uint64) {
	if !c.nonRoot || c.EPT == nil {
		c.cycles += c.Cost.Mem
		c.Mem.MustWrite64(gpa, v)
		return
	}
	eptp := mem.Addr(c.current.Read(c.Mem, EPTPointer))
	if pa, ok := c.EPT.Translate(eptp, gpa, true); ok {
		c.cycles += c.Cost.Mem
		c.Mem.MustWrite64(pa, v)
		return
	}
	c.exitE(Exit{Reason: ExitEPTViolation, Addr: gpa, Write: true, Val: v})
}

// APICWriteICR sends an IPI via the local APIC interrupt command register;
// ICR writes exit even with APICv.
func (c *CPU) APICWriteICR(target, vector int) {
	if !c.nonRoot {
		panic("x86: host IPIs are sent through the machine model")
	}
	c.exitE(Exit{Reason: ExitAPICWrite, Vector: vector, Val: uint64(target)})
}

// EOI completes the in-service interrupt through the virtualized APIC: no
// exit (Table 1's Virtual EOI row).
func (c *CPU) EOI() {
	c.cycles += c.Cost.APICAccess
}

// PostInterrupt queues a virtual interrupt for delivery to the running
// guest (APICv posted interrupts).
func (c *CPU) PostInterrupt(vector int) {
	c.posted = append(c.posted, vector)
}

// AssertIRQ marks a physical interrupt pending (IPI from another core).
func (c *CPU) AssertIRQ(vector int) { c.pendingIRQ = append(c.pendingIRQ, vector) }

// HasPendingIRQ reports whether a physical interrupt is pending.
func (c *CPU) HasPendingIRQ() bool { return len(c.pendingIRQ) > 0 }

// Tick charges guest work and is a preemption point.
func (c *CPU) Tick(n uint64) {
	c.cycles += n * c.Cost.Insn
	if c.HookTick != nil {
		c.HookTick(c, n)
	}
	for len(c.pendingIRQ) > 0 && c.nonRoot {
		c.exitE(Exit{Reason: ExitExternalInt, Vector: popFront(&c.pendingIRQ)})
	}
	c.deliverPosted()
}

func (c *CPU) deliverPosted() {
	if !c.nonRoot || c.inIRQ || c.IRQ == nil {
		return
	}
	for len(c.posted) > 0 {
		v := popFront(&c.posted)
		c.cycles += c.Cost.APICVirt // posted-interrupt delivery
		c.inIRQ = true
		c.IRQ.HandleIRQ(c, v)
		c.inIRQ = false
	}
}

// popFront removes and returns the head of a vector queue, shifting the
// rest down so the backing array is reused by later appends instead of
// shrinking from the front and regrowing. The queues hold a few vectors
// at most, and the queue state lives in the slice header, so a handler
// that re-enters a drain loop sees the same queue.
func popFront(q *[]int) int {
	v := (*q)[0]
	*q = (*q)[:copy(*q, (*q)[1:])]
	return v
}

// exit takes a VM exit to root mode and resumes the guest context the host
// scheduled.
func (c *CPU) exit(e *Exit) uint64 {
	c.cycles += c.Cost.VMExitHW
	if c.Trace != nil {
		ev := traceEvent(e)
		ev.FromLevel = int(c.level)
		ev.Cycle = c.cycles
		c.Trace.Trap(ev)
	}
	if c.HookExit != nil {
		c.HookExit(c, e)
	}
	if c.Vector == nil {
		panic("x86: VM exit with no root handler")
	}
	c.nonRoot = false
	c.attribute(c.level)
	c.level = 0
	v := c.Vector.HandleExit(c, e)
	c.cycles += c.Cost.VMEntryHW
	c.nonRoot = true
	c.attribute(0)
	c.level = c.guestLevel
	c.deliverPosted()
	return v
}

// exitE stages ev into a per-depth pool slot and takes the exit. Passing
// the Exit by value keeps the literal out of the heap: re-entrant exits
// (an external interrupt exiting inside a hypercall handler) each get
// their own slot, and depths beyond the pool fall back to an allocation.
func (c *CPU) exitE(ev Exit) uint64 {
	if c.exitDepth < len(c.exitPool) {
		e := &c.exitPool[c.exitDepth]
		*e = ev
		c.exitDepth++
		v := c.exit(e)
		c.exitDepth--
		return v
	}
	e := new(Exit)
	*e = ev
	return c.exit(e)
}

// RunGuest enters non-root mode and runs fn as guest software at the given
// level, returning to root when fn completes.
func (c *CPU) RunGuest(level int, fn func()) {
	if c.nonRoot {
		panic("x86: RunGuest in non-root mode")
	}
	c.cycles += c.Cost.VMEntryHW
	c.attribute(0)
	c.nonRoot = true
	c.SetGuestLevel(level)
	c.deliverPosted()
	fn()
	c.nonRoot = false
	c.attribute(c.level)
	c.level = 0
}
