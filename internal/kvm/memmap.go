package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
)

// Memory virtualization (paper Section 4): each hypervisor builds Stage-2
// tables for its VMs in its own address space. The host's tables are walked
// by the hardware; a guest hypervisor's tables live in guest physical
// memory, and the host collapses them with its own into shadow Stage-2
// tables that map nested-VM addresses directly to machine addresses.

// guestBacking exposes machine memory at a guest hypervisor's (intermediate)
// physical addresses, so the mmu table builders work unchanged for tables a
// guest builds in its own memory. Pages come from a bump region at the top
// of the guest's RAM; the cursor is the hypervisor's tracked hGuestNext
// word.
type guestBacking struct {
	h *Hypervisor
}

func (b *guestBacking) AllocPage() mem.Addr {
	p := mem.Addr(b.h.alloc.get(hGuestNext))
	if p == 0 {
		p = GuestRAMIPA + mem.Addr(b.h.home.RAMSize) - mem.Addr(b.h.home.RAMSize/8)
	}
	b.h.alloc.set(hGuestNext, uint64(p+mem.PageSize))
	return p
}

func (b *guestBacking) xlat(a mem.Addr) mem.Addr {
	ma, ok := b.h.ownToMachine(a)
	if !ok {
		panic(fmt.Sprintf("kvm[%s]: address %#x outside own RAM", b.h.Cfg.Name, uint64(a)))
	}
	return ma
}

func (b *guestBacking) Read64(a mem.Addr) (uint64, error) {
	return b.h.M.Mem.Read64(b.xlat(a))
}
func (b *guestBacking) MustRead64(a mem.Addr) uint64 {
	return b.h.M.Mem.MustRead64(b.xlat(a))
}
func (b *guestBacking) MustWrite64(a mem.Addr, v uint64) {
	b.h.M.Mem.MustWrite64(b.xlat(a), v)
}

// backing returns the memory view this hypervisor builds page tables in.
func (h *Hypervisor) backing() mmu.Backing {
	if h.IsHost() {
		return h.M.Mem
	}
	if h.guestMem == nil {
		h.guestMem = &guestBacking{h: h}
	}
	return h.guestMem
}

// ownToMachine translates an address in this hypervisor's own address space
// to a machine address by walking the chain of linear RAM mappings.
func (h *Hypervisor) ownToMachine(a mem.Addr) (mem.Addr, bool) {
	if h.IsHost() {
		return a, true
	}
	if a < GuestRAMIPA || uint64(a-GuestRAMIPA) >= h.home.RAMSize {
		return 0, false
	}
	return h.Parent.ownToMachine(h.home.RAMBase + (a - GuestRAMIPA))
}

// initVMS2 allocates and populates the VM's Stage-2 tables: RAM is mapped
// linearly; device windows (virtio) are deliberately left unmapped so
// accesses trap for emulation.
func (h *Hypervisor) initVMS2(vm *VM) {
	vm.s2 = mmu.NewTables(h.backing())
	vm.s2.Map(GuestRAMIPA, vm.RAMBase, vm.RAMSize, mmu.PermRWX)
	if h.Cfg.GICv2 && h.neveActive(vm) {
		// NEVE with a memory-mapped interface: expose the hypervisor
		// control interface state read-only, so reads avoid traps and
		// writes fault for emulation (the MMIO form of Section 6.1's
		// cached copies).
		vm.gicShadowOwn = h.backing().AllocPage()
		ma, ok := h.ownToMachine(vm.gicShadowOwn)
		if !ok {
			panic("kvm: GIC shadow page outside RAM")
		}
		vm.gicShadow = ma
		vm.s2.Map(gic.HostIfcBase, vm.gicShadowOwn, mem.PageSize, mmu.PermR)
	}
	vm.vmid = uint16(h.alloc.get(hNextVMID) + 1)
	h.alloc.set(hNextVMID, uint64(vm.vmid))
	h.bumpGen()
}

// gichFaultReg resolves a Stage-2 fault in the GICH window to the backing
// interface register.
func (h *Hypervisor) gichFaultReg(e *arm.Exception) (arm.SysReg, bool) {
	if e.FaultIPA < gic.HostIfcBase || uint64(e.FaultIPA-gic.HostIfcBase) >= gic.HostIfcSize {
		return arm.RegInvalid, false
	}
	return gic.HostIfcReg(uint64(e.FaultIPA - gic.HostIfcBase))
}

// refreshGICShadow copies the virtual interface state into the VM's GIC
// shadow page so deprivileged reads observe current values.
func (h *Hypervisor) refreshGICShadow(c *arm.CPU, v *VCPU) {
	vm := v.VM
	if vm.gicShadow == 0 {
		return
	}
	for _, r := range vncrEL2Regs {
		off, ok := gic.HostIfcOffset(r)
		if !ok {
			continue
		}
		c.PhysWrite64(vm.gicShadow+mem.Addr(off), v.VEL2.Get(r))
	}
}

// vmVTTBR is the VTTBR_EL2 value this hypervisor programs to run vm.
func (h *Hypervisor) vmVTTBR(vm *VM) uint64 {
	if vm.s2 == nil {
		h.initVMS2(vm)
	}
	return mmu.MakeVTTBR(vm.s2.Root, vm.vmid)
}

// shadowVTTBR returns (building lazily) the shadow Stage-2 root for the
// nested VM of vcpu v. Shadow tables live in machine memory and are
// populated on faults by fixShadowS2Fault.
func (h *Hypervisor) shadowVTTBR(c *arm.CPU, v *VCPU) uint64 {
	if v.shadowS2 == nil {
		// Tables live in the hypervisor's own address space: machine
		// memory for the host, guest physical memory for a deprivileged
		// hypervisor (whose shadow is collapsed again by its parent).
		v.shadowS2 = mmu.NewTables(h.backing())
		h.bumpGen()
	}
	return mmu.MakeVTTBR(v.shadowS2.Root, shadowVMIDBase+uint16(v.PCPU.ID))
}

const shadowVMIDBase = 0x100

// fixVMS2Fault repairs a Stage-2 fault of a directly-run VM: the modeled
// hypervisors premap RAM, so only accesses within the RAM window that the
// tables have not seen yet (machine restarts, tests unmapping pages) are
// repaired here.
func (h *Hypervisor) fixVMS2Fault(c *arm.CPU, v *VCPU, e *arm.Exception) bool {
	vm := v.VM
	if e.FaultIPA < GuestRAMIPA || uint64(e.FaultIPA-GuestRAMIPA) >= vm.RAMSize {
		return false
	}
	c.Work(workS2FaultFix)
	page := e.FaultIPA.PageBase()
	vm.s2.Map(page, vm.RAMBase+(page-GuestRAMIPA), mem.PageSize, mmu.PermRWX)
	h.tlbFlushPage(c, vm.vmid, page)
	return true
}

// fixShadowS2Fault repairs a shadow Stage-2 fault for a nested VM: walk the
// guest hypervisor's Stage-2 tables (whose table addresses are guest
// physical and must themselves be translated — mmu.Walk's nested xlat),
// translate the result through the host's own mapping, and install the
// collapsed translation (Section 4, "Memory virtualization"; same approach
// as Turtles).
func (h *Hypervisor) fixShadowS2Fault(c *arm.CPU, v *VCPU, e *arm.Exception) bool {
	vttbr := v.VEL2.Get(arm.VTTBR_EL2)
	if vttbr == 0 {
		return false
	}
	c.Work(workShadowS2Fix)
	vm := v.VM
	// toOwn maps the guest's addresses into this hypervisor's own address
	// space; walkXlat additionally reaches machine memory for descriptor
	// reads during the nested walk.
	toOwn := func(a mem.Addr) (mem.Addr, bool) {
		if a < GuestRAMIPA || uint64(a-GuestRAMIPA) >= vm.RAMSize {
			return 0, false
		}
		return vm.RAMBase + (a - GuestRAMIPA), true
	}
	walkXlat := func(a mem.Addr) (mem.Addr, bool) {
		own, ok := toOwn(a)
		if !ok {
			return 0, false
		}
		return h.ownToMachine(own)
	}
	res, ok := mmu.Walk(h.M.Mem, mmu.VTTBRRoot(vttbr), e.FaultIPA, walkXlat)
	c.AddCycles(uint64(res.Steps) * 4)
	if !ok {
		// The guest hypervisor has no mapping either: it must handle the
		// fault itself (true guest Stage-2 fault, forwarded by caller).
		return false
	}
	ownPA, ok := toOwn(res.OA)
	if !ok {
		return false
	}
	if v.shadowS2 == nil {
		v.shadowS2 = mmu.NewTables(h.backing())
		h.bumpGen()
	}
	v.shadowS2.Map(e.FaultIPA.PageBase(), ownPA.PageBase(), mem.PageSize, res.Perm)
	h.tlbFlushPage(c, shadowVMIDBase+uint16(v.PCPU.ID), e.FaultIPA.PageBase())
	return true
}

// vncrTranslate resolves the guest hypervisor's virtual VNCR_EL2 base (an
// address in its own physical address space) into this hypervisor's own
// address space, for programming the hardware register.
func (h *Hypervisor) vncrTranslate(v *VCPU) (mem.Addr, bool) {
	vncr := v.VEL2.Get(arm.VNCR_EL2)
	if !core.Enabled(vncr) {
		return 0, false
	}
	ipa := core.BAddr(vncr)
	vm := v.VM
	if ipa < GuestRAMIPA || uint64(ipa-GuestRAMIPA) >= vm.RAMSize {
		return 0, false
	}
	return vm.RAMBase + (ipa - GuestRAMIPA), true
}

// tlbFlushPage models the TLBI IPAS2E1IS after a Stage-2 change.
func (h *Hypervisor) tlbFlushPage(c *arm.CPU, vmid uint16, ipa mem.Addr) {
	c.Work(20)
	h.M.S2.TLB.FlushPage(vmid, ipa)
}

// ipaToMachine resolves a current-VM intermediate physical address to a
// machine address using this hypervisor's view (for access replay after a
// repaired fault). For nested mode it goes through the shadow tables.
func (h *Hypervisor) ipaToMachine(v *VCPU, ipa mem.Addr) (mem.Addr, bool) {
	if h.cur(v.PCPU).mode() == modeNested && v.shadowS2 != nil {
		if res, ok := v.shadowS2.Walk(ipa); ok {
			return h.ownToMachine(res.OA)
		}
		return 0, false
	}
	vm := v.VM
	if res, ok := mmu.Walk(h.backing(), vm.s2.Root, ipa, h.xlatOwn); ok {
		return h.ownToMachine(res.OA)
	}
	return 0, false
}

// xlatOwn adapts ownToMachine to the mmu walker's signature... table
// addresses in a host's tables are already machine addresses; for a guest
// hypervisor's view Walk runs against the guestBacking which translates.
func (h *Hypervisor) xlatOwn(a mem.Addr) (mem.Addr, bool) { return a, true }

// Work constants for the fault paths.
const (
	workS2FaultFix  = 700
	workShadowS2Fix = 1100
)
