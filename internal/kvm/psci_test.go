package kvm

import "testing"

func TestPSCIVersion(t *testing.T) {
	s := NewVMStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		if v := g.PSCIVersion(); v != PSCIVersionValue {
			t.Errorf("PSCI version = %#x, want %#x", v, PSCIVersionValue)
		}
	})
}

func TestPSCICPUOnBringsPeerUp(t *testing.T) {
	// Bring vCPU 1 up through the guest-visible interface, then use it as
	// an IPI target — no test-harness peer preparation.
	s := NewVMStack(StackOptions{CPUs: 2})
	c1 := s.M.CPUs[1]
	var got []int
	s.VM.VCPUs[1].Guest.OnIRQ(func(intid int) { got = append(got, intid) })
	s.RunGuest(0, func(g *GuestCtx) {
		if r := g.CPUOn(1); r != PSCISuccess {
			t.Fatalf("CPU_ON = %#x", r)
		}
		if r := g.CPUOn(1); r != PSCIAlreadyOn {
			t.Fatalf("second CPU_ON = %#x, want ALREADY_ON", r)
		}
		g.SendIPI(1, 4)
		s.Host.Service(c1)
	})
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("IPI after CPU_ON delivered = %v", got)
	}
	if !s.VM.VCPUs[1].Online() {
		t.Fatal("vCPU 1 not online")
	}
}

func TestPSCICPUOnInvalidTarget(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 2})
	s.RunGuest(0, func(g *GuestCtx) {
		if r := g.CPUOn(7); r != PSCIInvalidParams {
			t.Errorf("CPU_ON(7) = %#x, want INVALID_PARAMS", r)
		}
	})
}

func TestPSCICPUOff(t *testing.T) {
	s := NewVMStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		if r := g.CPUOff(); r != PSCISuccess {
			t.Errorf("CPU_OFF = %#x", r)
		}
	})
	if s.VM.VCPUs[0].Online() {
		t.Fatal("vCPU still online after CPU_OFF")
	}
}

func TestPSCIFromNestedVM(t *testing.T) {
	// A nested VM's PSCI calls are serviced by ITS hypervisor — the guest
	// hypervisor — after the usual forwarding.
	s := NewNestedStack(StackOptions{CPUs: 2, GuestNEVE: true})
	s.RunGuest(0, func(g *GuestCtx) {
		if v := g.PSCIVersion(); v != PSCIVersionValue {
			t.Errorf("nested PSCI version = %#x", v)
		}
		if r := g.CPUOn(1); r != PSCISuccess {
			t.Errorf("nested CPU_ON = %#x", r)
		}
	})
	if !s.NestedVM.VCPUs[1].Online() {
		t.Fatal("nested vCPU 1 not online")
	}
}
