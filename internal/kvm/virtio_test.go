package kvm

import (
	"slices"
	"testing"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/virtio"
)

func TestVirtioEchoVM(t *testing.T) {
	s := NewVMStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		var irqs []int
		g.OnIRQ(func(intid int) { irqs = append(irqs, intid) })
		if err := g.VirtioInit(); err != nil {
			t.Fatal(err)
		}
		got, err := g.VirtioEcho(0x1234_5678_9abc_def0)
		if err != nil {
			t.Fatal(err)
		}
		if got != ^uint64(0x1234_5678_9abc_def0) {
			t.Fatalf("echo = %#x", got)
		}
		if !slices.Contains(irqs, VirtioIRQ) {
			t.Errorf("interrupts delivered %v, want the completion interrupt %d", irqs, VirtioIRQ)
		}
	})
}

func TestVirtioEchoNested(t *testing.T) {
	// The full Turtles I/O path: the nested VM's ring lives in its RAM
	// (reached through two translation stages); the backend runs in the
	// guest hypervisor, whose own accesses to the nested VM's memory go
	// through its collapsed view; the kick is forwarded through the host.
	for _, neve := range []bool{false, true} {
		s := NewNestedStack(StackOptions{GuestNEVE: neve})
		s.RunGuest(0, func(g *GuestCtx) {
			if err := g.VirtioInit(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(1); i <= 3; i++ {
				got, err := g.VirtioEcho(i)
				if err != nil {
					t.Fatalf("neve=%v round %d: %v", neve, i, err)
				}
				if got != ^i {
					t.Fatalf("neve=%v round %d: echo = %#x", neve, i, got)
				}
			}
		})
	}
}

func TestVirtioKickCostAmplifiesWithNesting(t *testing.T) {
	cost := func(build func() *Stack) uint64 {
		s := build()
		var cyc uint64
		s.RunGuest(0, func(g *GuestCtx) {
			if err := g.VirtioInit(); err != nil {
				t.Fatal(err)
			}
			if _, err := g.VirtioEcho(1); err != nil {
				t.Fatal(err)
			}
			before := g.CPU.Cycles()
			if _, err := g.VirtioEcho(2); err != nil {
				t.Fatal(err)
			}
			cyc = g.CPU.Cycles() - before
		})
		return cyc
	}
	vm := cost(func() *Stack { return NewVMStack(StackOptions{}) })
	v83 := cost(func() *Stack { return NewNestedStack(StackOptions{}) })
	nv := cost(func() *Stack { return NewNestedStack(StackOptions{GuestNEVE: true}) })
	t.Logf("virtio echo: VM %d, nested v8.3 %d, nested NEVE %d cycles", vm, v83, nv)
	if v83 < 20*vm {
		t.Errorf("nesting did not amplify the virtio path: VM %d vs v8.3 %d", vm, v83)
	}
	if nv*3 > v83 {
		t.Errorf("NEVE did not cut the virtio path: %d vs %d", nv, v83)
	}
}

func TestVirtioRingStructures(t *testing.T) {
	// Pure ring mechanics over a flat memory.
	memory := flatMem{data: map[uint64]uint64{}}
	r := virtio.Ring{Mem: memory, Base: 0x1000}
	r.WriteDesc(3, virtio.Desc{Addr: 0xabc000, Len: 64, Flags: virtio.FlagWrite, Next: 5})
	d := r.ReadDesc(3)
	if d.Addr != 0xabc000 || d.Len != 64 || d.Flags != virtio.FlagWrite || d.Next != 5 {
		t.Fatalf("descriptor round trip = %+v", d)
	}
	r.SetAvailIdx(7)
	r.SetAvailEntry(7, 3)
	if r.AvailIdx() != 7 || r.AvailEntry(7) != 3 {
		t.Fatal("avail ring round trip failed")
	}
	r.SetUsedEntry(2, 3, 64)
	id, n := r.UsedEntry(2)
	if id != 3 || n != 64 {
		t.Fatalf("used entry = %d,%d", id, n)
	}
}

type flatMem struct{ data map[uint64]uint64 }

func (m flatMem) Read64(a mem.Addr) uint64     { return m.data[uint64(a)] }
func (m flatMem) Write64(a mem.Addr, v uint64) { m.data[uint64(a)] = v }

func TestVirtioGarbageRingFailsDeviceNotSimulator(t *testing.T) {
	// A guest programming QueuePFN with an unmapped address must not
	// crash the simulator (the backend would otherwise panic translating
	// the ring): the device goes NEEDS_RESET, the kick completes nothing,
	// and the stack stays alive.
	for _, build := range []func() *Stack{
		func() *Stack { return NewVMStack(StackOptions{}) },
		func() *Stack { return NewNestedStack(StackOptions{GuestNEVE: true}) },
	} {
		s := build()
		s.RunGuest(0, func(g *GuestCtx) {
			if err := g.VirtioInit(); err != nil {
				t.Fatal(err)
			}
			base := VirtioBase + VirtioRegOff
			// Point the device's ring view far outside guest RAM.
			g.CPU.GuestWrite(base+virtio.RegQueuePFN, 4, 0xdead0)
			got, err := g.VirtioEcho(0x42)
			if err == nil {
				t.Fatalf("echo over a garbage ring succeeded: %#x", got)
			}
			if st := g.CPU.GuestRead(base+virtio.RegStatus, 4); st&0x40 == 0 {
				t.Fatalf("device status %#x missing NEEDS_RESET", st)
			}
			// Further kicks on the failed device are ignored, not fatal.
			g.CPU.GuestWrite(base+virtio.RegQueueNotify, 4, 0)
			// And the rest of the stack still works.
			g.Hypercall()
		})
	}
}

func TestVirtioEchoBeforeInitErrors(t *testing.T) {
	s := NewVMStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		if _, err := g.VirtioEcho(1); err == nil {
			t.Error("VirtioEcho before VirtioInit succeeded")
		}
	})
}
