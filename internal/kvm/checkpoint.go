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
	loaded     []loadedRef
	pendingFwd []*fwd
	hasGuest   bool // guestMem allocator existed
	guestNext  mem.Addr
	nextVMID   uint16
	vms        []vmCheckpoint
}

// loadedRef is a core's loaded-context record as a checkpoint carries it.
type loadedRef struct {
	vcpu *VCPU
	mode runMode
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
		loaded:     make([]loadedRef, len(h.pendingFwd)),
		pendingFwd: make([]*fwd, len(h.pendingFwd)),
		nextVMID:   uint16(h.alloc.w[hNextVMID]),
	}
	for cpu := range cp.loaded {
		lc := loadedCtx{h, cpu}
		cp.loaded[cpu] = loadedRef{lc.vcpu(), lc.mode()}
	}
	for i := range h.pendingFwd {
		cp.pendingFwd[i] = h.pendingFwd[i].copyRec()
	}
	if h.guestMem != nil {
		cp.hasGuest = true
		cp.guestNext = mem.Addr(h.alloc.w[hGuestNext])
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
	if vm.virtioOn {
		vcp := &virtioCheckpoint{
			queuePFN:  vm.vio.w[vioQueuePFN],
			queueNum:  vm.vio.w[vioQueueNum],
			status:    vm.vio.w[vioStatus],
			intStatus: uint32(vm.vio.w[vioIntStatus]),
		}
		if vm.echo != nil {
			e := vm.echo.Checkpoint()
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
		inVEL2:   v.st.w[vcInVEL2] != 0,
		dirtyLRs: int(v.st.w[vcDirtyLRs]),
		x0:       v.st.w[vcX0],
		online:   v.st.w[vcOnline] != 0,
	}
	if len(v.pendingVIRQ) > 0 {
		cp.pendingVIRQ = append([]int(nil), v.pendingVIRQ...)
	}
	cp.pendingEntry = v.pendingEntry.copyRec()
	if v.shadowS2 != nil {
		t := v.shadowS2.Checkpoint()
		cp.shadowS2 = &t
	}
	if v.Guest != nil {
		g := v.Guest
		gcp := &guestCheckpoint{irqHandler: g.irqHandler}
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
		// The compiled super-ops stay: their guards are value
		// preconditions on live state, and the structural generation is
		// recomputed from the restored objects (the bumpGen below), so an
		// op replays after the restore exactly when its recorded state
		// recurs.
		s.jit.Quiesce()
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
	s.Host.bumpGen()
}

func restoreHyp(h *Hypervisor, cp *hypCheckpoint) {
	copy(h.hostCtxs, cp.hostCtxs)
	for cpu, l := range cp.loaded[:min(len(cp.loaded), len(h.pendingFwd))] {
		loadedCtx{h, cpu}.load(l.vcpu, l.mode)
	}
	for i := range h.pendingFwd {
		var f *fwd
		if i < len(cp.pendingFwd) {
			f = cp.pendingFwd[i]
		}
		h.pendingFwd[i].reset(f)
	}
	switch {
	case !cp.hasGuest:
		h.guestMem = nil
	case h.guestMem == nil:
		h.guestMem = &guestBacking{h: h}
	}
	h.alloc.w[hGuestNext] = uint64(cp.guestNext)
	h.alloc.w[hNextVMID] = uint64(cp.nextVMID)
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
	vm.virtioOn = cp.virtio != nil
	clear(vm.vio.w)
	if cp.virtio == nil {
		vm.echo = nil
	} else {
		vm.vio.w[vioQueuePFN] = cp.virtio.queuePFN
		vm.vio.w[vioQueueNum] = cp.virtio.queueNum
		vm.vio.w[vioStatus] = cp.virtio.status
		vm.vio.w[vioIntStatus] = uint64(cp.virtio.intStatus)
		if cp.virtio.echo == nil {
			vm.echo = nil
		} else {
			if vm.echo == nil {
				// The ring Memory view is per-trap wiring: the kick path
				// installs a fresh hypRingMem before every drain.
				vm.echo = &virtio.Echo{}
			}
			// The backend was built with the ring at the programmed
			// queue PFN, which the register file carries.
			vm.echo.Ring.Base = mem.Addr(cp.virtio.queuePFN << mem.PageShift)
			vm.echo.Restore(*cp.virtio.echo)
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
	v.st.w[vcInVEL2] = b2u(cp.inVEL2)
	v.pendingVIRQ = append(v.pendingVIRQ[:0], cp.pendingVIRQ...)
	v.pendingEntry.reset(cp.pendingEntry)
	switch {
	case cp.shadowS2 == nil:
		v.shadowS2 = nil
	case v.shadowS2 == nil:
		v.shadowS2 = &mmu.Tables{Mem: v.VM.Hyp.backing()}
		v.shadowS2.Restore(*cp.shadowS2)
	default:
		v.shadowS2.Restore(*cp.shadowS2)
	}
	v.st.w[vcDirtyLRs] = uint64(cp.dirtyLRs)
	v.st.w[vcX0] = cp.x0
	v.st.w[vcOnline] = b2u(cp.online)
	v.st.w[vcObserved] = b2u(cp.guest != nil && cp.guest.irqHandler != nil)
	if cp.guest == nil {
		v.Guest = nil
		return
	}
	if v.Guest == nil {
		v.Guest = &GuestCtx{CPU: v.PCPU, VCPU: v}
	}
	g := v.Guest
	g.irqHandler = cp.guest.irqHandler
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
