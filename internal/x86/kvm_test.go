package x86

import (
	"testing"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/trace"
)

// seedFields writes a distinct value, base+f, into each field first..last.
func seedFields(m *mem.Memory, v VMCS, base uint64, first, last Field) {
	for f := first; f <= last; f++ {
		v.Write(m, f, base+uint64(f))
	}
}

func TestForwardCopiesGuestStateToVMCS12(t *testing.T) {
	s := NewStack(StackOptions{Nested: true, Shadowing: true})
	lv := s.VM.VCPUs[0]
	// Seed distinct values in the hardware VMCS (vmcs02) and different
	// ones in vmcs12, in guest state, host state and exit information.
	const hw, l1 = 0xa000, 0xb000
	for _, run := range [][2]Field{{GuestRIP, HostIA32EFER}, {ExitReason, IdtVectoringInfo}} {
		seedFields(s.Mem, lv.vmcs, hw, run[0], run[1])
		seedFields(s.Mem, lv.vmcs12, l1, run[0], run[1])
	}
	s.RunGuest(0, func(g *GuestCtx) {
		g.Hypercall()
	})
	for f := GuestRIP; f <= IdtVectoringInfo; f++ {
		want := uint64(l1) + uint64(f) // not forwarded
		switch {
		case f == GuestRIP:
			want = hw + uint64(f) + 3 // forwarded, then advanced by the guest hypervisor
		case f == ExitReason:
			want = uint64(ExitVMCall)
		case f >= guestStateFirst && f <= guestStateLast,
			f == ExitQualification, f == GuestPhysicalAddress,
			f == ExitIntrInfo, f == IdtVectoringInfo:
			want = hw + uint64(f)
		case f >= PinBasedControls && f <= PostedIntrVector:
			continue // programmed by the hypervisors on entry
		}
		if got := lv.vmcs12.Read(s.Mem, f); got != want {
			t.Errorf("vmcs12 %v = %#x, want %#x", f, got, want)
		}
	}
}

func TestMergeAppliesVMCS12Changes(t *testing.T) {
	s := NewStack(StackOptions{Nested: true, Shadowing: true})
	lv := s.VM.VCPUs[0]
	s.RunGuest(0, func(g *GuestCtx) {
		g.Hypercall()
	})
	// The guest hypervisor advanced the nested RIP through the shadow
	// VMCS; the merge must have folded it into the hardware VMCS.
	rip02 := lv.vmcs.Read(s.Mem, GuestRIP)
	rip12 := lv.vmcs12.Read(s.Mem, GuestRIP)
	if rip02 != rip12 {
		t.Fatalf("merge did not fold GuestRIP: vmcs02 %#x vs vmcs12 %#x", rip02, rip12)
	}
	if rip02 == 0 {
		t.Fatal("GuestRIP never advanced")
	}

	// A full merge folds every guest-state field of vmcs12 and nothing
	// on either side of the run.
	const hw, l1 = 0xa000, 0xb000
	for _, v := range []struct {
		vmcs VMCS
		base uint64
	}{{lv.vmcs, hw}, {lv.vmcs12, l1}} {
		v.vmcs.Write(s.Mem, FieldInvalid, v.base)
		seedFields(s.Mem, v.vmcs, v.base, guestStateFirst, HostIA32EFER)
	}
	c := s.CPUs[0]
	lc := s.Host.cur(c)
	lc.mode, lc.fullDirty = modeL1, true
	s.Host.merge(c, lc)
	if got := lv.vmcs.Read(s.Mem, FieldInvalid); got != hw {
		t.Errorf("vmcs02 slot 0 = %#x, want %#x untouched", got, hw)
	}
	for f := guestStateFirst; f <= HostIA32EFER; f++ {
		want := uint64(l1) + uint64(f)
		if f > guestStateLast {
			want = hw + uint64(f)
		}
		if got := lv.vmcs.Read(s.Mem, f); got != want {
			t.Errorf("vmcs02 %v = %#x, want %#x", f, got, want)
		}
	}
}

func TestNestedTrapReasons(t *testing.T) {
	s := NewStack(StackOptions{Nested: true, Shadowing: true, RecordTrace: true})
	s.RunGuest(0, func(g *GuestCtx) {
		g.Hypercall()
		s.Trace.Reset()
		g.Hypercall()
	})
	if got := s.Trace.Count(trace.ReasonVMCall); got != 1 {
		t.Errorf("vmcall exits = %d, want 1", got)
	}
	if got := s.Trace.Count(trace.ReasonVMResume); got != 1 {
		t.Errorf("vmresume exits = %d, want 1", got)
	}
	if got := s.Trace.Count(trace.ReasonVMWrite); got != 2 {
		t.Errorf("unshadowed vmwrite exits = %d, want 2 (intr-info, EPTP)", got)
	}
	if got := s.Trace.Count(trace.ReasonMSRAccess); got != 1 {
		t.Errorf("MSR exits = %d, want 1 (TSC deadline)", got)
	}
}

func TestVMIPIPostedDeliveryNoExit(t *testing.T) {
	s := NewStack(StackOptions{CPUs: 2, Shadowing: true})
	got := []int{}
	target := s.LoadTarget(1)
	target.OnIRQ(func(v int) { got = append(got, v) })
	s.RunGuest(0, func(g *GuestCtx) {
		s.Trace.Reset()
		g.SendIPI(1, 0x55)
		s.Service(1)
	})
	if len(got) != 1 || got[0] != 0x55 {
		t.Fatalf("delivered = %v", got)
	}
	// Only the sender's ICR write exits: APICv posts the interrupt into
	// the running receiver without a VM exit.
	if s.Trace.Total() != 1 {
		t.Fatalf("exits = %d, want 1 (posted-interrupt delivery)", s.Trace.Total())
	}
}

func TestNestedIPIDelivery(t *testing.T) {
	s := NewStack(StackOptions{CPUs: 2, Nested: true, Shadowing: true})
	got := []int{}
	target := s.LoadTarget(1)
	target.OnIRQ(func(v int) { got = append(got, v) })
	s.RunGuest(0, func(g *GuestCtx) {
		g.SendIPI(1, 0x66)
		s.Service(1)
		g.SendIPI(1, 0x67)
		s.Service(1)
	})
	if len(got) != 2 || got[0] != 0x66 || got[1] != 0x67 {
		t.Fatalf("delivered = %v", got)
	}
}

func TestMixedWorkloadX86(t *testing.T) {
	for _, nested := range []bool{false, true} {
		s := NewStack(StackOptions{Nested: nested, Shadowing: true})
		s.RunGuest(0, func(g *GuestCtx) {
			for i := 0; i < 40; i++ {
				switch i % 3 {
				case 0:
					g.Hypercall()
				case 1:
					if g.DeviceRead(uint64(i)*8) == 0 {
						t.Fatalf("nested=%v op %d: device value lost", nested, i)
					}
				case 2:
					g.Work(5000)
				}
			}
		})
	}
}

func TestX86Determinism(t *testing.T) {
	run := func() uint64 {
		s := NewStack(StackOptions{Nested: true, Shadowing: true})
		s.RunGuest(0, func(g *GuestCtx) {
			for i := 0; i < 10; i++ {
				g.Hypercall()
			}
		})
		return s.CPUs[0].Cycles()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestDeviceIRQReachesNestedX86Guest(t *testing.T) {
	s := NewStack(StackOptions{Nested: true, Shadowing: true})
	got := []int{}
	s.RunGuest(0, func(g *GuestCtx) {
		g.OnIRQ(func(v int) { got = append(got, v) })
		g.CPU.AssertIRQ(0x51)
		g.Work(300)
	})
	if len(got) != 1 || got[0] != 0x51 {
		t.Fatalf("delivered = %v, want [0x51=81]", got)
	}
}

func TestExitReasonStrings(t *testing.T) {
	for r, want := range map[ExitReasonCode]string{
		ExitVMCall: "vmcall", ExitVMResume: "vmresume",
		ExitEPTViolation: "ept-violation", ExitMSRWrite: "msr-write",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", int(r), r.String())
		}
	}
}
