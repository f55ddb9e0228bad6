package kvm

import (
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/trace"
)

func TestVMHypercall(t *testing.T) {
	s := NewVMStack(StackOptions{})
	var traps uint64
	s.RunGuest(0, func(g *GuestCtx) {
		g.Hypercall() // warm
		s.M.Trace.Reset()
		before := g.CPU.Cycles()
		g.Hypercall()
		cost := g.CPU.Cycles() - before
		traps = s.M.Trace.Total()
		t.Logf("VM hypercall: %d cycles, %d traps", cost, traps)
		if cost < 1500 || cost > 5000 {
			t.Errorf("VM hypercall cost %d cycles, want ~2700 (Table 1)", cost)
		}
	})
	if traps != 1 {
		t.Fatalf("VM hypercall traps = %d, want 1", traps)
	}
}

func TestNestedHypercallTrapCounts(t *testing.T) {
	// Table 7: Hypercall traps to the host hypervisor.
	cases := []struct {
		name string
		opts StackOptions
		want uint64
		tol  uint64
	}{
		{"ARMv8.3", StackOptions{}, 126, 8},
		{"ARMv8.3-VHE", StackOptions{GuestVHE: true}, 82, 8},
		{"NEVE", StackOptions{GuestNEVE: true}, 15, 3},
		{"NEVE-VHE", StackOptions{GuestVHE: true, GuestNEVE: true}, 15, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewNestedStack(tc.opts)
			s.RunGuest(0, func(g *GuestCtx) {
				g.Hypercall() // warm up shadow structures
				s.M.Trace.Reset()
				before := g.CPU.Cycles()
				g.Hypercall()
				cost := g.CPU.Cycles() - before
				got := s.M.Trace.Total()
				t.Logf("%s nested hypercall: %d cycles, %d traps", tc.name, cost, got)
				if got < tc.want-tc.tol || got > tc.want+tc.tol {
					t.Errorf("traps = %d, want %d±%d (Table 7)", got, tc.want, tc.tol)
				}
			})
		})
	}
}

func TestNestedDeviceIO(t *testing.T) {
	s := NewNestedStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		g.DeviceRead(0) // warm
		s.M.Trace.Reset()
		v := g.DeviceRead(8)
		if v == 0 {
			t.Error("device read returned zero (emulation value lost)")
		}
		t.Logf("nested device I/O traps = %d", s.M.Trace.Total())
		if s.M.Trace.Total() <= 100 {
			t.Errorf("device I/O traps = %d, want >100 on ARMv8.3", s.M.Trace.Total())
		}
	})
}

func TestVMDeviceIO(t *testing.T) {
	s := NewVMStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		if v := g.DeviceRead(8); v == 0 {
			t.Error("device read returned zero")
		}
	})
}

func TestNEVEDeferredStateConsistency(t *testing.T) {
	// A NEVE guest hypervisor's deferred VM-register writes must be
	// observed by the host at nested-VM entry: the nested VM keeps
	// running correctly across many exits.
	s := NewNestedStack(StackOptions{GuestNEVE: true})
	s.RunGuest(0, func(g *GuestCtx) {
		for i := 0; i < 10; i++ {
			g.Hypercall()
			if v := g.DeviceRead(uint64(i) * 8); v == 0 {
				t.Fatalf("iteration %d: lost device value", i)
			}
		}
	})
}

func TestNestedRAMAccessThroughShadowS2(t *testing.T) {
	s := NewNestedStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		g.RAMWrite64(0x100, 0xfeedface)
		if v := g.RAMRead64(0x100); v != 0xfeedface {
			t.Fatalf("nested RAM read = %#x, want 0xfeedface", v)
		}
	})
	// The value must have landed in machine memory at the collapsed
	// address: L2 IPA 0x100 -> L1 IPA (nested RAMBase+0x100) -> machine.
	l2 := s.NestedVM
	l1 := s.VM
	machineAddr := l1.RAMBase + (l2.RAMBase - GuestRAMIPA) + 0x100
	if got := s.M.Mem.MustRead64(machineAddr); got != 0xfeedface {
		t.Fatalf("machine memory at %#x = %#x", uint64(machineAddr), got)
	}
}

func TestVirtualIPIEndToEnd(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 2})
	c1 := s.M.CPUs[1]

	var got []int
	// Load vcpu1 and keep it resident (enter, register handler, return
	// but leave state loaded for Service).
	v1 := s.VM.VCPUs[1]
	s.Host.enterSwitch(c1, v1, modeGuestOS)
	v1.Guest.OnIRQ(func(intid int) { got = append(got, intid) })
	c1.SetGuestLevel(1)

	s.Host.RunGuestOS(s.VM.VCPUs[0], func(g *GuestCtx) {
		g.SendIPI(1, 3)
	})

	if !c1.HasPendingIRQ() {
		t.Fatal("no physical kick pending on target core")
	}
	s.Host.Service(c1)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("received IPIs = %v, want [3]", got)
	}
}

func TestNestedVirtualIPIEndToEnd(t *testing.T) {
	for _, neve := range []bool{false, true} {
		name := "ARMv8.3"
		if neve {
			name = "NEVE"
		}
		t.Run(name, func(t *testing.T) {
			s := NewNestedStack(StackOptions{CPUs: 2, GuestNEVE: neve})
			c1 := s.M.CPUs[1]

			var got []int
			lv1 := s.VM.VCPUs[1]
			nv1 := lv1.nestedVCPU()
			s.GuestHyp.cur(c1).load(nv1, modeGuestOS)
			s.Host.loadNestedState(c1, lv1)
			s.Host.enterSwitch(c1, lv1, modeNested)
			nv1.Guest.OnIRQ(func(intid int) { got = append(got, intid) })

			s.M.Trace.Reset()
			s.RunGuest(0, func(g *GuestCtx) {
				g.SendIPI(1, 5)
			})
			senderTraps := s.M.Trace.Total()

			if !c1.HasPendingIRQ() {
				t.Fatal("no physical kick pending on target core")
			}
			s.Host.Service(c1)
			total := s.M.Trace.Total()
			t.Logf("%s nested IPI: sender traps %d, total traps %d", name, senderTraps, total)
			if len(got) != 1 || got[0] != 5 {
				t.Fatalf("received IPIs = %v, want [5]", got)
			}
			if neve && total > 80 {
				t.Errorf("NEVE nested IPI traps = %d, want well under ARMv8.3's ~261", total)
			}
			if !neve && total < 100 {
				t.Errorf("ARMv8.3 nested IPI traps = %d, want ~261", total)
			}
		})
	}
}

func TestTraceLevelsAttributed(t *testing.T) {
	s := NewNestedStack(StackOptions{RecordTrace: true})
	s.RunGuest(0, func(g *GuestCtx) {
		s.M.Trace.Reset()
		g.Hypercall()
	})
	var fromL2, fromL1 int
	for _, ev := range s.M.Trace.Events() {
		switch ev.FromLevel {
		case 2:
			fromL2++
		case 1:
			fromL1++
		}
	}
	if fromL2 != 1 {
		t.Errorf("traps from L2 = %d, want exactly 1 (the hypercall)", fromL2)
	}
	if fromL1 < 50 {
		t.Errorf("traps from L1 = %d, want many (exit multiplication)", fromL1)
	}
}

func TestCurrentELDisguiseInGuestHyp(t *testing.T) {
	// The guest hypervisor must believe it runs in EL2 (Section 2). Verify
	// via a probe wedged into the vector path.
	s := NewNestedStack(StackOptions{})
	c := s.M.CPUs[0]
	probe := arm.EL(99)
	s.RunGuest(0, func(g *GuestCtx) {
		// During this hypercall the guest hypervisor's vector runs; its
		// CurrentEL reads are disguised. Probe directly after, while still
		// configured as nested guest (NV clear in nested mode).
		g.Hypercall()
		probe = c.CurrentEL()
	})
	if probe != arm.EL1 {
		t.Fatalf("nested VM CurrentEL = %v, want EL1", probe)
	}
}

func TestTrapSummaryNonEmpty(t *testing.T) {
	s := NewNestedStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) { g.Hypercall() })
	c := trace.NewCollector(false)
	_ = c
	if s.M.Trace.Total() == 0 {
		t.Fatal("no traps recorded")
	}
}
