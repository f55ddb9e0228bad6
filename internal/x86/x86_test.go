package x86

import (
	"testing"

	"github.com/nevesim/neve/internal/mem"
)

func TestVMCSFieldStorage(t *testing.T) {
	m := mem.New(0)
	v := NewVMCS(m)
	v.Write(m, GuestRIP, 0x1234)
	if got := v.Read(m, GuestRIP); got != 0x1234 {
		t.Fatalf("GuestRIP = %#x", got)
	}
	if v.Slot(GuestRIP) == v.Slot(GuestRSP) {
		t.Fatal("fields share a slot")
	}
}

func TestShadowBitmapExcludesInterceptedFields(t *testing.T) {
	bm := DefaultShadowBitmap()
	if bm[EPTPointer] || bm[VMEntryIntrInfo] || bm[PostedIntrVector] {
		t.Fatal("always-intercepted field marked shadowable")
	}
	if !bm[GuestRIP] || !bm[ExitReason] {
		t.Fatal("common fields not shadowable")
	}
}

func TestRootVMReadWriteNoExit(t *testing.T) {
	s := NewStack(StackOptions{})
	c := s.CPUs[0]
	c.VMPtrLoad(s.VM.VCPUs[0].vmcs)
	c.VMWrite(GuestRSP, 7)
	if got := c.VMRead(GuestRSP); got != 7 {
		t.Fatalf("VMRead = %d", got)
	}
	if s.Trace.Total() != 0 {
		t.Fatal("root-mode VMCS access exited")
	}
}

func TestNonRootShadowedAccessNoExit(t *testing.T) {
	s := NewStack(StackOptions{})
	c := s.CPUs[0]
	shadow := NewVMCS(s.Mem)
	c.SetShadow(true, shadow, DefaultShadowBitmap())
	c.RunGuest(1, func() {
		c.VMWrite(GuestRIP, 42)
		if got := c.VMRead(GuestRIP); got != 42 {
			t.Errorf("shadowed VMRead = %d", got)
		}
	})
	if s.Trace.Total() != 0 {
		t.Fatalf("shadowed access exited %d times", s.Trace.Total())
	}
	if got := shadow.Read(s.Mem, GuestRIP); got != 42 {
		t.Fatalf("shadow VMCS holds %d", got)
	}
}

func TestNonRootUnshadowedAccessExits(t *testing.T) {
	s := NewStack(StackOptions{Nested: true})
	c := s.CPUs[0]
	lv := s.VM.VCPUs[0]
	s.Host.loaded[0] = loadedCtx{vcpu: lv, mode: modeL1}
	c.VMPtrLoad(lv.vmcs)
	c.SetShadow(true, lv.vmcs12, DefaultShadowBitmap())
	c.RunGuest(1, func() {
		c.VMWrite(VMEntryIntrInfo, 0)
	})
	if s.Trace.Total() != 1 {
		t.Fatalf("unshadowed write exits = %d, want 1", s.Trace.Total())
	}
}

func measure(s *Stack, op func(g *GuestCtx)) (cycles, traps uint64) {
	s.RunGuest(0, func(g *GuestCtx) {
		op(g)
		s.Trace.Reset()
		before := g.CPU.Cycles()
		op(g)
		cycles = g.CPU.Cycles() - before
	})
	traps = s.Trace.Total()
	return cycles, traps
}

func within(t *testing.T, what string, got, want uint64, tolPct float64) {
	t.Helper()
	lo := float64(want) * (1 - tolPct/100)
	hi := float64(want) * (1 + tolPct/100)
	if float64(got) < lo || float64(got) > hi {
		t.Errorf("%s = %d, want %d ±%.0f%%", what, got, want, tolPct)
	} else {
		t.Logf("%s = %d (paper %d, ratio %.2f)", what, got, want, float64(got)/float64(want))
	}
}

func TestCalibrationVMHypercall(t *testing.T) {
	s := NewStack(StackOptions{Shadowing: true})
	cyc, traps := measure(s, func(g *GuestCtx) { g.Hypercall() })
	if traps != 1 {
		t.Errorf("VM hypercall exits = %d, want 1", traps)
	}
	within(t, "x86 VM hypercall cycles", cyc, 1188, 15)
}

func TestCalibrationVMDeviceIO(t *testing.T) {
	s := NewStack(StackOptions{Shadowing: true})
	cyc, _ := measure(s, func(g *GuestCtx) { g.DeviceRead(0) })
	within(t, "x86 VM device I/O cycles", cyc, 2307, 15)
}

func TestCalibrationEOI(t *testing.T) {
	s := NewStack(StackOptions{})
	var cost uint64
	s.RunGuest(0, func(g *GuestCtx) {
		before := g.CPU.Cycles()
		g.CPU.EOI()
		cost = g.CPU.Cycles() - before
	})
	if cost != 316 {
		t.Fatalf("Virtual EOI = %d cycles, want 316 (Table 1)", cost)
	}
}

func TestCalibrationNestedHypercall(t *testing.T) {
	s := NewStack(StackOptions{Nested: true, Shadowing: true})
	cyc, traps := measure(s, func(g *GuestCtx) { g.Hypercall() })
	if traps != 5 {
		t.Errorf("nested hypercall exits = %d, want exactly 5 (Table 7)", traps)
	}
	within(t, "x86 nested hypercall cycles", cyc, 36345, 15)
}

func TestCalibrationNestedDeviceIO(t *testing.T) {
	s := NewStack(StackOptions{Nested: true, Shadowing: true})
	cyc, traps := measure(s, func(g *GuestCtx) { g.DeviceRead(0) })
	if traps != 5 {
		t.Errorf("nested device I/O exits = %d, want exactly 5 (Table 7)", traps)
	}
	within(t, "x86 nested device I/O cycles", cyc, 39108, 15)
}

func measureIPI(t *testing.T, s *Stack) (cycles, traps uint64) {
	t.Helper()
	c0, c1 := s.CPUs[0], s.CPUs[1]
	count := 0
	target := s.LoadTarget(1)
	target.OnIRQ(func(int) { count++ })
	const rounds = 3
	s.RunGuest(0, func(g *GuestCtx) {
		for i := 0; i < rounds; i++ {
			if i == rounds-1 {
				s.Trace.Reset()
			}
			b0, b1 := c0.Cycles(), c1.Cycles()
			g.SendIPI(1, 0x41)
			s.Service(1)
			cycles = (c0.Cycles() - b0) + (c1.Cycles() - b1)
		}
	})
	traps = s.Trace.Total()
	if count != rounds {
		t.Fatalf("IPIs received = %d, want %d", count, rounds)
	}
	return cycles, traps
}

func TestCalibrationVMIPI(t *testing.T) {
	s := NewStack(StackOptions{CPUs: 2, Shadowing: true})
	cyc, traps := measureIPI(t, s)
	// One exit: the ICR write; APICv posted interrupts deliver to the
	// receiver without an exit.
	if traps != 1 {
		t.Errorf("VM IPI exits = %d, want 1", traps)
	}
	within(t, "x86 VM IPI cycles", cyc, 2751, 25)
}

func TestCalibrationNestedIPI(t *testing.T) {
	s := NewStack(StackOptions{CPUs: 2, Nested: true, Shadowing: true})
	cyc, traps := measureIPI(t, s)
	if traps != 9 {
		t.Errorf("nested IPI exits = %d, want exactly 9 (Table 7)", traps)
	}
	within(t, "x86 nested IPI cycles", cyc, 45360, 25)
}

func TestShadowingAblation(t *testing.T) {
	// Without VMCS shadowing every guest-hypervisor vmread/vmwrite exits:
	// the nested operation becomes drastically more expensive (Section 8
	// discusses VMCS shadowing's ~10% application-level gain; at the
	// microbenchmark level the difference is larger).
	with := NewStack(StackOptions{Nested: true, Shadowing: true})
	cycWith, trapsWith := measure(with, func(g *GuestCtx) { g.Hypercall() })
	without := NewStack(StackOptions{Nested: true, Shadowing: false})
	cycWithout, trapsWithout := measure(without, func(g *GuestCtx) { g.Hypercall() })
	t.Logf("shadowing on: %d cycles/%d exits; off: %d cycles/%d exits",
		cycWith, trapsWith, cycWithout, trapsWithout)
	if trapsWithout <= trapsWith {
		t.Errorf("shadowing did not reduce exits: %d vs %d", trapsWith, trapsWithout)
	}
	if cycWithout <= cycWith {
		t.Errorf("shadowing did not reduce cycles: %d vs %d", cycWith, cycWithout)
	}
}

func TestNestedDeviceValueReturned(t *testing.T) {
	s := NewStack(StackOptions{Nested: true, Shadowing: true})
	s.RunGuest(0, func(g *GuestCtx) {
		if v := g.DeviceRead(8); v == 0 {
			t.Error("nested device read returned 0")
		}
	})
}

func TestFieldNamesComplete(t *testing.T) {
	for f := FieldInvalid + 1; f < Field(NumFields); f++ {
		if s := f.String(); len(s) == 0 || s[0] == 'v' && s != "vmcs" && false {
			t.Errorf("field %d unnamed", f)
		}
		if _, generic := fieldNames[f]; !generic {
			t.Errorf("field %d missing from the name table", f)
		}
	}
}

func TestGuestStateFieldsAreGuestFields(t *testing.T) {
	// forward and merge move guest state with one copy of the slot run
	// guestStateFirst..guestStateLast: the list must be exactly that run,
	// in slot order, so the copy moves every guest-state field and no
	// other.
	if guestStateFirst != GuestRIP || guestStateLast != GuestInterruptibility {
		t.Fatalf("guest-state run = %v..%v, want GUEST_RIP..GUEST_INTERRUPTIBILITY", guestStateFirst, guestStateLast)
	}
	if n := int(guestStateLast-guestStateFirst) + 1; len(guestStateFields) != n {
		t.Fatalf("guestStateFields has %d fields, the run %d", len(guestStateFields), n)
	}
	for i, f := range guestStateFields {
		if want := guestStateFirst + Field(i); f != want {
			t.Errorf("guestStateFields[%d] = %v, want %v", i, f, want)
		}
	}
	// The exit information copies as two runs around VM_INSTRUCTION_ERROR.
	if GuestPhysicalAddress+1 != VMInstructionError || VMInstructionError+1 != ExitIntrInfo {
		t.Error("VM_INSTRUCTION_ERROR no longer separates the two exit-information runs")
	}
	if ExitReason+2 != GuestPhysicalAddress || ExitIntrInfo+1 != IdtVectoringInfo {
		t.Error("the exit-information runs are no longer contiguous")
	}
}
