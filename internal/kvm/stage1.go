package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/machine"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
)

// Stage-1 translation for guest software. The guest OS manages its own
// Stage-1 page tables in its RAM without hypervisor involvement (paper
// Section 2: "Stage-1 page tables can be used and managed by the VM
// without trapping to the hypervisor"); the modeled hardware walks them
// with every descriptor fetch itself translated by Stage-2. For a nested
// VM this realizes the paper's full memory-virtualization chain
// (Section 4): L2 VA -> L2 PA (guest Stage-1) -> L1 PA (guest hypervisor's
// Stage-2, collapsed into the shadow) -> machine PA.

// stage1Backing lets the mmu table builders and walkers operate on the
// guest's own RAM through the CPU's guest-access path: every read and
// write goes through Stage-2 translation, faulting and being repaired or
// emulated like any other guest access.
type stage1Backing struct {
	g *GuestCtx
	// next is the bump allocator for table pages, placed in the top
	// eighth of guest RAM (below the region a guest hypervisor would use
	// for its own tables).
	next mem.Addr
}

func (b *stage1Backing) AllocPage() mem.Addr {
	if b.next == 0 {
		size := b.g.VCPU.VM.RAMSize
		b.next = GuestRAMIPA + mem.Addr(size) - mem.Addr(size/4)
	}
	p := b.next
	b.next += mem.PageSize
	// The cursor is not a tracked word: a recording that advances it is
	// not promotable.
	b.g.CPU.JITPoison()
	// Zero the fresh table page through the guest path.
	for off := mem.Addr(0); off < mem.PageSize; off += 512 {
		b.g.CPU.GuestWrite(p+off, 8, 0)
	}
	return p
}

func (b *stage1Backing) Read64(a mem.Addr) (uint64, error) {
	return b.g.CPU.GuestRead(a, 8), nil
}
func (b *stage1Backing) MustRead64(a mem.Addr) uint64 {
	return b.g.CPU.GuestRead(a, 8)
}
func (b *stage1Backing) MustWrite64(a mem.Addr, v uint64) {
	b.g.CPU.GuestWrite(a, 8, v)
}

// EnableStage1 turns on the guest's Stage-1 MMU: allocates an empty root
// table in guest RAM and programs TTBR0_EL1 — a plain EL1 register write
// that traps only for a deprivileged non-VHE hypervisor, never for a VM.
func (g *GuestCtx) EnableStage1() {
	if g.s1 != nil {
		return
	}
	b := &stage1Backing{g: g}
	g.VCPU.VM.Hyp.bumpGen()
	g.s1 = mmu.NewTables(b)
	g.CPU.MSR(ttbr0ForGuest, uint64(g.s1.Root))
}

// ttbr0ForGuest is the register a guest OS programs with its table root.
const ttbr0ForGuest = arm.TTBR0_EL1

// MapVA maps one page of guest virtual address space onto a guest physical
// page, building Stage-1 descriptors in guest RAM.
func (g *GuestCtx) MapVA(va, ipa mem.Addr) {
	if g.s1 == nil {
		panic("kvm: MapVA before EnableStage1")
	}
	g.s1.Map(va.PageBase(), ipa.PageBase(), mem.PageSize, mmu.PermRWX)
}

// Stage1Fault is the typed error for a failed guest Stage-1 walk: the
// guest accessed a virtual address its own page tables do not map. On
// real hardware this is a data abort delivered to the guest's EL1 vector,
// a guest-internal event the hypervisor never sees — so it must never
// crash the simulator. translateVA mirrors the hardware's exception-entry
// side effects (FAR_EL1/ESR_EL1) and returns the fault for the guest
// program to handle.
type Stage1Fault struct {
	VA mem.Addr
}

func (f *Stage1Fault) Error() string {
	return fmt.Sprintf("kvm: stage-1 translation fault at %#x (guest bug)", uint64(f.VA))
}

// translateVA models the hardware Stage-1 walk: descriptor fetches go
// through the guest-access path (and therefore Stage-2).
func (g *GuestCtx) translateVA(va mem.Addr) (mem.Addr, error) {
	if g.s1 == nil {
		panic("kvm: virtual access with Stage-1 disabled")
	}
	res, ok := mmu.Walk(&stage1Backing{g: g}, mem.Addr(g.CPU.Reg(ttbr0ForGuest)), va, nil)
	if !ok {
		// Exception entry to the guest's own EL1 vector: syndrome and
		// fault address become architecturally visible to the guest.
		g.CPU.SetReg(arm.FAR_EL1, uint64(va))
		g.CPU.SetReg(arm.ESR_EL1, uint64(arm.ECDAbtLow)<<26)
		g.CPU.AddCycles(g.CPU.Cost.ExcEnterEL1)
		return 0, &Stage1Fault{VA: va}
	}
	return res.OA, nil
}

// ReadVA reads guest virtual memory through both translation stages. An
// unmapped virtual address returns a *Stage1Fault (the guest's own data
// abort), not a simulator crash.
func (g *GuestCtx) ReadVA(va mem.Addr) (uint64, error) {
	pa, err := g.translateVA(va)
	if err != nil {
		return 0, err
	}
	return g.CPU.GuestRead(pa, 8), nil
}

// WriteVA writes guest virtual memory through both translation stages;
// fault behavior as ReadVA.
func (g *GuestCtx) WriteVA(va mem.Addr, v uint64) error {
	pa, err := g.translateVA(va)
	if err != nil {
		return err
	}
	g.CPU.GuestWrite(pa, 8, v)
	return nil
}

// Idle executes wfi: the guest yields to its hypervisor until the next
// event (trapped and handled as a scheduling hint).
func (g *GuestCtx) Idle() { g.CPU.WFI() }

// PutChar writes one byte to the console device; the access faults in
// Stage-2 and the hypervisor chain emulates it down to the machine UART.
func (g *GuestCtx) PutChar(b byte) {
	g.CPU.GuestWrite(machine.UARTBase, 1, uint64(b))
}

// Print writes a string to the console device.
func (g *GuestCtx) Print(s string) {
	for i := 0; i < len(s); i++ {
		g.PutChar(s[i])
	}
}
