package kvm

import "testing"

// These tests pin the model to the paper's measured values: trap counts
// (Table 7) must match exactly — they are emergent from the world-switch
// sequences, so a change that alters them is a behavioral change — and
// cycle counts (Tables 1 and 6) must stay within a tolerance band.

// measureOp runs op twice on the innermost guest of s (once to warm shadow
// structures) and returns the cycles and traps of the second run.
func measureOp(s *Stack, op func(g *GuestCtx)) (cycles, traps uint64) {
	s.RunGuest(0, func(g *GuestCtx) {
		op(g)
		s.M.Trace.Reset()
		before := g.CPU.Cycles()
		op(g)
		cycles = g.CPU.Cycles() - before
	})
	traps = s.M.Trace.Total()
	return cycles, traps
}

// ipiPrep loads vcpu 1's innermost guest on core 1 with an IRQ handler and
// returns a completion counter.
func ipiPrep(s *Stack) *int {
	c1 := s.M.CPUs[1]
	count := new(int)
	if s.GuestHyp != nil {
		lv1 := s.VM.VCPUs[1]
		nv1 := lv1.nestedVCPU()
		s.GuestHyp.cur(c1).load(nv1, modeGuestOS)
		s.Host.loadNestedState(c1, lv1)
		s.Host.enterSwitch(c1, lv1, modeNested)
		nv1.Guest.OnIRQ(func(int) { *count++ })
	} else {
		v1 := s.VM.VCPUs[1]
		s.Host.enterSwitch(c1, v1, modeGuestOS)
		v1.Guest.OnIRQ(func(int) { *count++ })
	}
	return count
}

// measureIPI returns end-to-end (sender + receiver) cycles and total traps
// for one warm virtual IPI from vCPU 0 to vCPU 1.
func measureIPI(t *testing.T, s *Stack) (cycles, traps uint64) {
	t.Helper()
	c0, c1 := s.M.CPUs[0], s.M.CPUs[1]
	count := ipiPrep(s)
	const rounds = 3
	s.RunGuest(0, func(g *GuestCtx) {
		for i := 0; i < rounds; i++ {
			if i == rounds-1 {
				s.M.Trace.Reset()
			}
			b0, b1 := c0.Cycles(), c1.Cycles()
			g.SendIPI(1, 3)
			s.Host.Service(c1)
			cycles = (c0.Cycles() - b0) + (c1.Cycles() - b1)
		}
	})
	traps = s.M.Trace.Total()
	if *count != rounds {
		t.Fatalf("IPIs received = %d, want %d", *count, rounds)
	}
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

var nestedConfigs = []struct {
	name string
	opts StackOptions
	// Paper values: {Hypercall, DeviceIO, VirtualIPI} cycles (Tables 1/6)
	// and traps (Table 7).
	hcCycles, hcTraps   uint64
	dioCycles, dioTraps uint64
	ipiCycles, ipiTraps uint64
}{
	{"ARMv8.3", StackOptions{CPUs: 2}, 422720, 126, 436924, 128, 611686, 261},
	{"ARMv8.3-VHE", StackOptions{CPUs: 2, GuestVHE: true}, 307363, 82, 312148, 82, 494765, 172},
	{"NEVE", StackOptions{CPUs: 2, GuestNEVE: true}, 92385, 15, 96002, 15, 184657, 37},
	{"NEVE-VHE", StackOptions{CPUs: 2, GuestVHE: true, GuestNEVE: true}, 100895, 15, 105071, 15, 213256, 38},
}

func TestCalibrationVMBaseline(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 2})
	cyc, traps := measureOp(s, func(g *GuestCtx) { g.Hypercall() })
	within(t, "VM hypercall cycles", cyc, 2729, 15)
	if traps != 1 {
		t.Errorf("VM hypercall traps = %d, want 1", traps)
	}
	s = NewVMStack(StackOptions{CPUs: 2})
	cyc, _ = measureOp(s, func(g *GuestCtx) { g.DeviceRead(0) })
	within(t, "VM device I/O cycles", cyc, 3534, 15)
	s = NewVMStack(StackOptions{CPUs: 2})
	cyc, _ = measureIPI(t, s)
	within(t, "VM virtual IPI cycles", cyc, 8364, 30)
}

func TestCalibrationHypercall(t *testing.T) {
	for _, tc := range nestedConfigs {
		t.Run(tc.name, func(t *testing.T) {
			s := NewNestedStack(tc.opts)
			cyc, traps := measureOp(s, func(g *GuestCtx) { g.Hypercall() })
			if traps != tc.hcTraps {
				t.Errorf("hypercall traps = %d, want exactly %d (Table 7)", traps, tc.hcTraps)
			}
			within(t, "hypercall cycles", cyc, tc.hcCycles, 15)
		})
	}
}

func TestCalibrationDeviceIO(t *testing.T) {
	for _, tc := range nestedConfigs {
		t.Run(tc.name, func(t *testing.T) {
			s := NewNestedStack(tc.opts)
			cyc, traps := measureOp(s, func(g *GuestCtx) { g.DeviceRead(0) })
			if traps != tc.dioTraps {
				t.Errorf("device I/O traps = %d, want exactly %d (Table 7)", traps, tc.dioTraps)
			}
			within(t, "device I/O cycles", cyc, tc.dioCycles, 15)
		})
	}
}

func TestCalibrationVirtualIPI(t *testing.T) {
	for _, tc := range nestedConfigs {
		t.Run(tc.name, func(t *testing.T) {
			s := NewNestedStack(tc.opts)
			cyc, traps := measureIPI(t, s)
			// IPI trap counts involve two cores' flows; allow a small band.
			if diff := int64(traps) - int64(tc.ipiTraps); diff < -8 || diff > 8 {
				t.Errorf("IPI traps = %d, want %d±8 (Table 7)", traps, tc.ipiTraps)
			}
			within(t, "IPI cycles", cyc, tc.ipiCycles, 45)
		})
	}
}

func TestNEVEOrderOfMagnitudeClaim(t *testing.T) {
	// The headline claim: NEVE provides up to 5x lower microbenchmark
	// cost than ARMv8.3 (Section 7.1) and an order of magnitude fewer
	// traps.
	v83 := NewNestedStack(StackOptions{})
	cyc83, traps83 := measureOp(v83, func(g *GuestCtx) { g.Hypercall() })
	nv := NewNestedStack(StackOptions{GuestNEVE: true})
	cycNV, trapsNV := measureOp(nv, func(g *GuestCtx) { g.Hypercall() })
	if cyc83 < 3*cycNV {
		t.Errorf("NEVE speedup = %.1fx, want > 3x", float64(cyc83)/float64(cycNV))
	}
	if traps83 < 6*trapsNV {
		t.Errorf("NEVE trap reduction = %.1fx, want > 6x (paper: 126 vs 15)", float64(traps83)/float64(trapsNV))
	}
}
