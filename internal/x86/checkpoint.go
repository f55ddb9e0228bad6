package x86

import (
	"fmt"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// CPUCheckpoint captures a core's mutable execution state: VMX mode,
// virtualization levels, the current and shadow VMCS pointers, pending
// interrupt queues, and cycle counters with their per-level attribution.
// Fixed wiring (memory, cost model, vector, hooks, EPT resolver) is not
// captured; the shadow bitmap is host configuration and travels by
// reference.
type CPUCheckpoint struct {
	nonRoot        bool
	level          int
	guestLevel     int
	current        VMCS
	shadowEnabled  bool
	shadowVMCS     VMCS
	shadowed       *[NumFields]bool
	posted         []int
	pendingIRQ     []int
	inIRQ          bool
	cycles         uint64
	levelCycles    [8]uint64
	lastAttributed uint64
	irq            IRQSink
}

// Checkpoint captures the core state. The core must be quiescent — not
// inside an exit handler.
func (c *CPU) Checkpoint() *CPUCheckpoint {
	if c.exitDepth != 0 {
		panic("x86: Checkpoint inside an exit handler")
	}
	cp := &CPUCheckpoint{
		nonRoot:        c.nonRoot,
		level:          c.level,
		guestLevel:     c.guestLevel,
		current:        c.current,
		shadowEnabled:  c.shadowEnabled,
		shadowVMCS:     c.shadowVMCS,
		shadowed:       c.shadowed,
		inIRQ:          c.inIRQ,
		cycles:         c.cycles,
		levelCycles:    c.levelCycles,
		lastAttributed: c.lastAttributed,
		irq:            c.IRQ,
	}
	if len(c.posted) > 0 {
		cp.posted = append([]int(nil), c.posted...)
	}
	if len(c.pendingIRQ) > 0 {
		cp.pendingIRQ = append([]int(nil), c.pendingIRQ...)
	}
	return cp
}

// Restore returns the core to a checkpointed state.
func (c *CPU) Restore(cp *CPUCheckpoint) {
	c.nonRoot = cp.nonRoot
	c.level = cp.level
	c.guestLevel = cp.guestLevel
	c.current = cp.current
	c.shadowEnabled = cp.shadowEnabled
	c.shadowVMCS = cp.shadowVMCS
	c.shadowed = cp.shadowed
	c.posted = append(c.posted[:0], cp.posted...)
	c.pendingIRQ = append(c.pendingIRQ[:0], cp.pendingIRQ...)
	c.inIRQ = cp.inIRQ
	c.cycles = cp.cycles
	c.levelCycles = cp.levelCycles
	c.lastAttributed = cp.lastAttributed
	c.IRQ = cp.irq
	c.exitDepth = 0
}

// StackCheckpoint captures a whole x86 stack: the memory snapshot, the
// trace collector, every core, the shared EPT TLB, and the Go-side
// software state of both hypervisor levels. See the ARM side's
// kvm.StackCheckpoint for the contract; the two are deliberately
// symmetric so platform snapshots treat them alike.
type StackCheckpoint struct {
	mem   *mem.Snapshot
	trace trace.CollectorCheckpoint
	cpus  []*CPUCheckpoint
	ept   *mmu.TLBCheckpoint
	hyps  []hypCheckpoint
}

type hypCheckpoint struct {
	loaded     []loadedCtx
	pendingFwd *fwd
	vms        []vmCheckpoint
}

type vmCheckpoint struct {
	ept     *mmu.TablesCheckpoint
	eptNext mem.Addr // guestRAMBacking allocator cursor, 0 for host-backed trees
	ramBase mem.Addr
	ramSize uint64
	vcpus   []vcpuCheckpoint
}

type vcpuCheckpoint struct {
	vmcs       VMCS
	vmcs12     VMCS
	pending    []int
	x0         uint64
	injectVec  uint64
	shadowEPT  *mmu.TablesCheckpoint
	irqHandler func(vector int)
}

func (s *Stack) hypList() []*Hypervisor {
	out := []*Hypervisor{s.Host}
	if s.GuestHyp != nil {
		out = append(out, s.GuestHyp)
	}
	return out
}

// Checkpoint captures the full stack state.
func (s *Stack) Checkpoint() *StackCheckpoint {
	cp := &StackCheckpoint{
		mem:   s.Mem.Snapshot(),
		trace: s.Trace.Checkpoint(),
	}
	for _, c := range s.CPUs {
		cp.cpus = append(cp.cpus, c.Checkpoint())
	}
	if e, ok := s.CPUs[0].EPT.(*eptContext); ok {
		t := e.tlb.Checkpoint()
		cp.ept = &t
	}
	for _, h := range s.hypList() {
		cp.hyps = append(cp.hyps, checkpointHyp(h))
	}
	return cp
}

func checkpointHyp(h *Hypervisor) hypCheckpoint {
	cp := hypCheckpoint{loaded: append([]loadedCtx(nil), h.loaded...)}
	if h.pendingFwd.child != nil {
		f := h.pendingFwd
		cp.pendingFwd = &f
	}
	for _, vm := range h.VMs {
		cp.vms = append(cp.vms, checkpointVM(vm))
	}
	return cp
}

func checkpointVM(vm *VM) vmCheckpoint {
	cp := vmCheckpoint{ramBase: vm.ramBase, ramSize: vm.ramSize}
	if vm.ept != nil {
		t := vm.ept.Checkpoint()
		cp.ept = &t
		if b, ok := vm.ept.Mem.(*guestRAMBacking); ok {
			cp.eptNext = b.next
		}
	}
	for _, v := range vm.VCPUs {
		vc := vcpuCheckpoint{
			vmcs:      v.vmcs,
			vmcs12:    v.vmcs12,
			x0:        v.x0,
			injectVec: v.injectVec,
		}
		if len(v.pending) > 0 {
			vc.pending = append([]int(nil), v.pending...)
		}
		if v.shadowEPT != nil {
			t := v.shadowEPT.Checkpoint()
			vc.shadowEPT = &t
		}
		if v.Guest != nil {
			vc.irqHandler = v.Guest.irqHandler
		}
		cp.vcpus = append(cp.vcpus, vc)
	}
	return cp
}

// Restore returns the stack to a checkpointed state. The topology is
// fixed at NewStack, so live table trees are restored in place; the
// restore allocates nothing beyond the pending-queue copies.
func (s *Stack) Restore(cp *StackCheckpoint) {
	s.Mem.Restore(cp.mem)
	s.Trace.Restore(cp.trace)
	for i, c := range s.CPUs {
		c.Restore(cp.cpus[i])
	}
	if cp.ept != nil {
		s.CPUs[0].EPT.(*eptContext).tlb.Restore(*cp.ept)
	}
	n := 1
	if s.GuestHyp != nil {
		n++
	}
	if n != len(cp.hyps) {
		panic(fmt.Sprintf("x86: restore across stack shapes (%d levels vs %d)", n, len(cp.hyps)))
	}
	restoreHyp(s.Host, &cp.hyps[0])
	if s.GuestHyp != nil {
		restoreHyp(s.GuestHyp, &cp.hyps[1])
	}
}

func restoreHyp(h *Hypervisor, cp *hypCheckpoint) {
	copy(h.loaded, cp.loaded)
	h.pendingFwd = fwd{}
	if cp.pendingFwd != nil {
		h.pendingFwd = *cp.pendingFwd
	}
	if len(h.VMs) != len(cp.vms) {
		panic(fmt.Sprintf("x86[%s]: restore across VM topologies (%d VMs vs %d)", h.Cfg.Name, len(h.VMs), len(cp.vms)))
	}
	for i, vm := range h.VMs {
		restoreVM(vm, &cp.vms[i])
	}
}

func restoreVM(vm *VM, cp *vmCheckpoint) {
	vm.ramBase = cp.ramBase
	vm.ramSize = cp.ramSize
	switch {
	case cp.ept == nil:
		vm.ept = nil
	case vm.ept == nil:
		panic(fmt.Sprintf("x86[%s]: restore into a stack without an EPT tree", vm.Name))
	default:
		vm.ept.Restore(*cp.ept)
		if b, ok := vm.ept.Mem.(*guestRAMBacking); ok {
			b.next = cp.eptNext
		}
	}
	for i, v := range vm.VCPUs {
		vc := &cp.vcpus[i]
		v.vmcs = vc.vmcs
		v.vmcs12 = vc.vmcs12
		v.pending = append(v.pending[:0], vc.pending...)
		v.x0 = vc.x0
		v.injectVec = vc.injectVec
		switch {
		case vc.shadowEPT == nil:
			v.shadowEPT = nil
		case v.shadowEPT == nil:
			panic(fmt.Sprintf("x86[%s]: restore into a stack without a shadow EPT tree", v.VM.Name))
		default:
			v.shadowEPT.Restore(*vc.shadowEPT)
		}
		if v.Guest != nil {
			v.Guest.irqHandler = vc.irqHandler
		}
	}
}
