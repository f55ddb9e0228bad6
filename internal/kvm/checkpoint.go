package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/machine"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/virtio"
)

// StackCheckpoint captures a whole assembled stack: the machine (with a
// copy-on-write memory snapshot) plus the Go-side software state of every
// hypervisor level, VM, and vCPU. Restoring it returns the stack to the
// captured point exactly — a restored stack produces byte-identical
// cycle, trap, and event output to one that never diverged.
//
// The capture assumes the stack is quiescent: no vCPU is mid-trap (the
// CPU checkpoints enforce this) and the topology — which hypervisors and
// VMs exist, and their vCPU counts — matches at restore time. Topology is
// fixed at assembly, so any stack can be restored to any checkpoint taken
// from the same assembly.
type StackCheckpoint struct {
	machine *machine.Checkpoint
	hyps    []hypCheckpoint
	lastSMP SMPStats
}

type hypCheckpoint struct {
	hostCtxs   []Context
	loaded     []loadedCtx
	pendingFwd []*fwd
	hasGuest   bool // guestMem allocator existed
	guestNext  mem.Addr
	nextVMID   uint16
	vms        []vmCheckpoint
}

type vmCheckpoint struct {
	s2           *mmu.TablesCheckpoint
	vmid         uint16
	virtio       *virtioCheckpoint
	gicShadowOwn mem.Addr
	gicShadow    mem.Addr
	vcpus        []vcpuCheckpoint
}

type virtioCheckpoint struct {
	queuePFN  uint64
	queueNum  uint64
	status    uint64
	intStatus uint32
	echo      *virtio.EchoCheckpoint
}

type vcpuCheckpoint struct {
	el1          Context
	vel2         Context
	virtEL1      Context
	pageCtx      Context
	inVEL2       bool
	pendingVIRQ  []int
	pendingEntry *arm.Exception
	shadowS2     *mmu.TablesCheckpoint
	dirtyLRs     int
	x0           uint64
	online       bool
	guest        *guestCheckpoint
}

type guestCheckpoint struct {
	irqHandler func(intid int)
	irqCount   uint64
	s1         *mmu.TablesCheckpoint
	s1Next     mem.Addr
	vq         *virtio.DriverCheckpoint
	vqBase     mem.Addr
}

// hyps returns the stack's hypervisor levels in fixed order.
func (s *Stack) hyps() []*Hypervisor {
	out := []*Hypervisor{s.Host}
	if s.GuestHyp != nil {
		out = append(out, s.GuestHyp)
	}
	if s.GuestHyp2 != nil {
		out = append(out, s.GuestHyp2)
	}
	return out
}

// Checkpoint captures the full stack state. SMP runs are only capturable
// at quiescent boundaries: between RunSMP/RunSMPOpts calls, never while
// the epoch engine has vCPU goroutines parked inside guest contexts.
func (s *Stack) Checkpoint() *StackCheckpoint {
	if s.smpRunning {
		panic("kvm: Checkpoint during an SMP run (not a quiescent boundary)")
	}
	cp := &StackCheckpoint{machine: s.M.Checkpoint(), lastSMP: s.lastSMP}
	for _, h := range s.hyps() {
		cp.hyps = append(cp.hyps, checkpointHyp(h))
	}
	return cp
}

func checkpointHyp(h *Hypervisor) hypCheckpoint {
	cp := hypCheckpoint{
		hostCtxs:   append([]Context(nil), h.hostCtxs...),
		loaded:     append([]loadedCtx(nil), h.loaded...),
		pendingFwd: make([]*fwd, len(h.pendingFwd)),
		nextVMID:   h.nextVMID,
	}
	for i, f := range h.pendingFwd {
		if f != nil {
			c := *f
			cp.pendingFwd[i] = &c
		}
	}
	if h.guestMem != nil {
		cp.hasGuest = true
		cp.guestNext = h.guestMem.next
	}
	for _, vm := range h.VMs {
		cp.vms = append(cp.vms, checkpointVM(vm))
	}
	return cp
}

func checkpointVM(vm *VM) vmCheckpoint {
	cp := vmCheckpoint{
		vmid:         vm.vmid,
		gicShadowOwn: vm.gicShadowOwn,
		gicShadow:    vm.gicShadow,
	}
	if vm.s2 != nil {
		t := vm.s2.Checkpoint()
		cp.s2 = &t
	}
	if vm.virtio != nil {
		vcp := &virtioCheckpoint{
			queuePFN:  vm.virtio.queuePFN,
			queueNum:  vm.virtio.queueNum,
			status:    vm.virtio.status,
			intStatus: vm.virtio.intStatus,
		}
		if vm.virtio.echo != nil {
			e := vm.virtio.echo.Checkpoint()
			vcp.echo = &e
		}
		cp.virtio = vcp
	}
	for _, v := range vm.VCPUs {
		cp.vcpus = append(cp.vcpus, checkpointVCPU(v))
	}
	return cp
}

func checkpointVCPU(v *VCPU) vcpuCheckpoint {
	cp := vcpuCheckpoint{
		el1:      v.EL1,
		vel2:     v.VEL2,
		virtEL1:  v.VirtEL1,
		pageCtx:  v.PageCtx,
		inVEL2:   v.InVEL2,
		dirtyLRs: v.dirtyLRs,
		x0:       v.x0,
		online:   v.Online,
	}
	if len(v.pendingVIRQ) > 0 {
		cp.pendingVIRQ = append([]int(nil), v.pendingVIRQ...)
	}
	if v.pendingEntry != nil {
		e := *v.pendingEntry
		cp.pendingEntry = &e
	}
	if v.shadowS2 != nil {
		t := v.shadowS2.Checkpoint()
		cp.shadowS2 = &t
	}
	if v.Guest != nil {
		g := v.Guest
		gcp := &guestCheckpoint{irqHandler: g.irqHandler, irqCount: g.IRQCount}
		if g.s1 != nil {
			t := g.s1.Checkpoint()
			gcp.s1 = &t
			gcp.s1Next = g.s1.Mem.(*stage1Backing).next
		}
		if g.vq != nil {
			d := g.vq.Checkpoint()
			gcp.vq = &d
			gcp.vqBase = g.vq.Ring.Base
		}
		cp.guest = gcp
	}
	return cp
}

// Restore returns the stack to a checkpointed state. The restore reuses
// live storage wherever the checkpoint topology matches the stack, so
// restoring the boot checkpoint of a warm-boot pool entry allocates
// nothing on the hot path.
func (s *Stack) Restore(cp *StackCheckpoint) {
	if s.smpRunning {
		panic("kvm: Restore during an SMP run (not a quiescent boundary)")
	}
	s.lastSMP = cp.lastSMP
	if s.jit != nil {
		// Full invalidation, not just a Quiesce: super-op guards are value
		// preconditions and would stay sound across the restore, but
		// warm-boot pools share one boot checkpoint between cells running
		// different workloads, and a cache of never-matching variants both
		// costs a failed guard check per dispatch and exhausts the chain
		// slots the new workload needs for its own recordings.
		s.jit.Reset()
	}
	s.M.Restore(cp.machine)
	n := 1
	if s.GuestHyp != nil {
		n++
	}
	if s.GuestHyp2 != nil {
		n++
	}
	if n != len(cp.hyps) {
		panic(fmt.Sprintf("kvm: restore across stack shapes (%d levels vs %d)", n, len(cp.hyps)))
	}
	restoreHyp(s.Host, &cp.hyps[0])
	if s.GuestHyp != nil {
		restoreHyp(s.GuestHyp, &cp.hyps[1])
	}
	if s.GuestHyp2 != nil {
		restoreHyp(s.GuestHyp2, &cp.hyps[2])
	}
}

func restoreHyp(h *Hypervisor, cp *hypCheckpoint) {
	copy(h.hostCtxs, cp.hostCtxs)
	copy(h.loaded, cp.loaded)
	for i := range h.pendingFwd {
		if i >= len(cp.pendingFwd) || cp.pendingFwd[i] == nil {
			h.pendingFwd[i] = nil
			continue
		}
		f := *cp.pendingFwd[i]
		h.pendingFwd[i] = &f
	}
	switch {
	case !cp.hasGuest:
		h.guestMem = nil
	case h.guestMem == nil:
		h.guestMem = &guestBacking{h: h, next: cp.guestNext}
	default:
		h.guestMem.next = cp.guestNext
	}
	h.nextVMID = cp.nextVMID
	if len(h.VMs) != len(cp.vms) {
		panic(fmt.Sprintf("kvm[%s]: restore across VM topologies (%d VMs vs %d)", h.Cfg.Name, len(h.VMs), len(cp.vms)))
	}
	for i, vm := range h.VMs {
		restoreVM(vm, &cp.vms[i])
	}
}

func restoreVM(vm *VM, cp *vmCheckpoint) {
	vm.vmid = cp.vmid
	vm.gicShadowOwn = cp.gicShadowOwn
	vm.gicShadow = cp.gicShadow
	switch {
	case cp.s2 == nil:
		vm.s2 = nil
	case vm.s2 == nil:
		vm.s2 = &mmu.Tables{Mem: vm.Hyp.backing()}
		vm.s2.Restore(*cp.s2)
	default:
		vm.s2.Restore(*cp.s2)
	}
	if cp.virtio == nil {
		vm.virtio = nil
	} else {
		if vm.virtio == nil {
			vm.virtio = &vmVirtio{}
		}
		dev := vm.virtio
		dev.queuePFN = cp.virtio.queuePFN
		dev.queueNum = cp.virtio.queueNum
		dev.status = cp.virtio.status
		dev.intStatus = cp.virtio.intStatus
		if cp.virtio.echo == nil {
			dev.echo = nil
		} else {
			if dev.echo == nil {
				// The ring Memory view is per-trap wiring: the kick path
				// installs a fresh hypRingMem before every drain.
				dev.echo = &virtio.Echo{Ring: virtio.Ring{
					Base: mem.Addr(cp.virtio.queuePFN << mem.PageShift),
				}}
			}
			dev.echo.Restore(*cp.virtio.echo)
		}
	}
	for i, v := range vm.VCPUs {
		restoreVCPU(v, &cp.vcpus[i])
	}
}

func restoreVCPU(v *VCPU, cp *vcpuCheckpoint) {
	v.EL1 = cp.el1
	v.VEL2 = cp.vel2
	v.VirtEL1 = cp.virtEL1
	v.PageCtx = cp.pageCtx
	v.InVEL2 = cp.inVEL2
	v.pendingVIRQ = append(v.pendingVIRQ[:0], cp.pendingVIRQ...)
	if cp.pendingEntry == nil {
		v.pendingEntry = nil
	} else {
		e := *cp.pendingEntry
		v.pendingEntry = &e
	}
	switch {
	case cp.shadowS2 == nil:
		v.shadowS2 = nil
	case v.shadowS2 == nil:
		v.shadowS2 = &mmu.Tables{Mem: v.VM.Hyp.backing()}
		v.shadowS2.Restore(*cp.shadowS2)
	default:
		v.shadowS2.Restore(*cp.shadowS2)
	}
	v.dirtyLRs = cp.dirtyLRs
	v.x0 = cp.x0
	v.Online = cp.online
	if cp.guest == nil {
		v.Guest = nil
		return
	}
	if v.Guest == nil {
		v.Guest = &GuestCtx{CPU: v.PCPU, VCPU: v}
	}
	g := v.Guest
	g.irqHandler = cp.guest.irqHandler
	g.IRQCount = cp.guest.irqCount
	if cp.guest.s1 == nil {
		g.s1 = nil
	} else {
		if g.s1 == nil {
			g.s1 = &mmu.Tables{Mem: &stage1Backing{g: g}}
		}
		g.s1.Mem.(*stage1Backing).next = cp.guest.s1Next
		g.s1.Restore(*cp.guest.s1)
	}
	if cp.guest.vq == nil {
		g.vq = nil
	} else {
		if g.vq == nil {
			g.vq = &virtio.Driver{Ring: virtio.Ring{Mem: guestRingMem{g}, Base: cp.guest.vqBase}}
		}
		g.vq.Ring.Base = cp.guest.vqBase
		g.vq.Restore(*cp.guest.vq)
	}
}
