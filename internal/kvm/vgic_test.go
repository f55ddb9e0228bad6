package kvm

import (
	"testing"

	"github.com/nevesim/neve/internal/arm"
)

func TestFlushPendingRespectsLRCapacity(t *testing.T) {
	s := NewVMStack(StackOptions{})
	v := s.VM.VCPUs[0]
	for i := 0; i < usedLRs+3; i++ {
		s.Host.injectVIRQ(v, i)
	}
	s.Host.flushPendingVIRQ(v)
	filled := 0
	for i := 0; i < usedLRs; i++ {
		if arm.LRStateOf(v.EL1.Get(arm.ICHLR(i))) == arm.LRStatePending {
			filled++
		}
	}
	if filled != usedLRs {
		t.Fatalf("filled %d LRs, want %d", filled, usedLRs)
	}
	if len(v.pendingVIRQ) != 3 {
		t.Fatalf("overflow queue = %d, want 3", len(v.pendingVIRQ))
	}
	if n := v.st.get(vcDirtyLRs); n != usedLRs {
		t.Fatalf("dirtyLRs = %d, want %d", n, usedLRs)
	}
}

func TestFlushSkipsOccupiedLRs(t *testing.T) {
	s := NewVMStack(StackOptions{})
	v := s.VM.VCPUs[0]
	v.EL1.Set(arm.ICHLR(0), arm.MakeLR(99, -1)) // already in flight
	s.Host.injectVIRQ(v, 5)
	s.Host.flushPendingVIRQ(v)
	if got := arm.LRVIntID(v.EL1.Get(arm.ICHLR(0))); got != 99 {
		t.Fatalf("LR0 clobbered: intid %d", got)
	}
	if got := arm.LRVIntID(v.EL1.Get(arm.ICHLR(1))); got != 5 {
		t.Fatalf("LR1 = intid %d, want 5", got)
	}
}

func TestSendSGIInvalidTargetPanics(t *testing.T) {
	s := NewVMStack(StackOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("SGI to nonexistent vcpu did not panic")
		}
	}()
	s.Host.vgicSendSGI(s.M.CPUs[0], s.VM, 99, 3)
}

func TestGuestSGIRangeChecked(t *testing.T) {
	s := NewVMStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range guest SGI did not panic")
			}
		}()
		g.SendIPI(1, KickSGI) // guests may not use the hypervisor's kick id
	})
}

func TestSameCoreIPINeedsNoKick(t *testing.T) {
	// An IPI to a vCPU pinned on the sender's own core flushes at the next
	// entry without a physical SGI.
	s := NewVMStack(StackOptions{CPUs: 2})
	delivered := []int{}
	s.RunGuest(0, func(g *GuestCtx) {
		g.OnIRQ(func(intid int) { delivered = append(delivered, intid) })
		g.SendIPI(0, 2) // to self
		g.Work(10)
	})
	if len(delivered) != 1 || delivered[0] != 2 {
		t.Fatalf("self-IPI delivered = %v", delivered)
	}
	if s.M.CPUs[1].HasPendingIRQ() {
		t.Fatal("self-IPI kicked the other core")
	}
}

func TestMultipleIPIsDeliveredInOrder(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 2})
	c1 := s.M.CPUs[1]
	var got []int
	v1 := s.VM.VCPUs[1]
	s.Host.PreparePeerVM(v1)
	v1.Guest.OnIRQ(func(intid int) { got = append(got, intid) })
	s.RunGuest(0, func(g *GuestCtx) {
		g.SendIPI(1, 1)
		g.SendIPI(1, 2)
		g.SendIPI(1, 3)
		s.Host.Service(c1)
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered = %v, want [1 2 3]", got)
	}
}

func TestDeviceIRQReachesNestedGuest(t *testing.T) {
	// A physical device interrupt (NIC RX) routed to a core running a
	// nested VM must be forwarded through the guest hypervisor and arrive
	// as a virtual interrupt in the nested VM.
	for _, neve := range []bool{false, true} {
		s := NewNestedStack(StackOptions{GuestNEVE: neve})
		s.M.Dist.Route(48, 0)
		var got []int
		s.RunGuest(0, func(g *GuestCtx) {
			g.OnIRQ(func(intid int) { got = append(got, intid) })
			s.M.Dist.AssertSPI(48)
			g.Work(500)
		})
		if len(got) != 1 || got[0] != 48 {
			t.Fatalf("neve=%v: nested VM received %v, want [48]", neve, got)
		}
	}
}

func TestDeviceIRQTrapCost(t *testing.T) {
	// The RX-interrupt injection path is a forwarded exit plus the guest
	// hypervisor's backend processing: it must show the same NEVE-vs-v8.3
	// gap as the microbenchmarks.
	measure := func(neve bool) uint64 {
		s := NewNestedStack(StackOptions{GuestNEVE: neve})
		s.M.Dist.Route(48, 0)
		var cost uint64
		s.RunGuest(0, func(g *GuestCtx) {
			g.OnIRQ(func(int) {})
			s.M.Dist.AssertSPI(48)
			g.Work(200)
			before := g.CPU.Cycles()
			s.M.Dist.AssertSPI(48)
			g.Work(200)
			cost = g.CPU.Cycles() - before
		})
		return cost
	}
	v83 := measure(false)
	nv := measure(true)
	if v83 < 3*nv {
		t.Errorf("RX injection: v8.3 %d vs NEVE %d — want >3x gap", v83, nv)
	}
}
