package kvm

import (
	"reflect"
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/trace"
)

// SMP runs on a JIT-installed stack are interpreted: smpSetup detaches
// the whole-stack engine for the run and re-attaches it afterwards. The
// stack's JIT must be invisible to the run — JIT-on parallel matches
// JIT-on sequential matches the JIT-off run, byte for byte, on every
// guest-visible number — and must serve single-vCPU runs again after it.

// smpStorm is a per-vCPU interrupt-storm program: timer ticks, device
// IRQs, and IPIs all in flight at once, with the IRQ streams recorded for
// comparison.
func smpStorm(n, rounds int, irqs [][]int, cycles []uint64) []func(g *SMPGuest) {
	progs := make([]func(g *SMPGuest), n)
	for i := 0; i < n; i++ {
		i := i
		progs[i] = func(g *SMPGuest) {
			g.OnIRQ(func(intid int) { irqs[i] = append(irqs[i], intid) })
			for r := 0; r < rounds; r++ {
				g.ArmTimer(400)
				g.Work(800)
				g.DeviceKick()
				g.Work(800)
				if n > 1 {
					g.SendIPI((i+1)%n, r%MaxGuestSGI)
				}
				g.Yield()
			}
			cycles[i] = g.Cycles()
		}
	}
	return progs
}

type smpStormResult struct {
	irqs   [][]int
	cycles []uint64
	traps  uint64
	stats  SMPStats
}

func runSMPStorm(s *Stack, n, rounds int, opts SMPOptions) smpStormResult {
	r := smpStormResult{irqs: make([][]int, n), cycles: make([]uint64, n)}
	r.stats = s.RunSMPOpts(smpStorm(n, rounds, r.irqs, r.cycles), opts)
	r.traps = s.M.Trace.Total()
	return r
}

func (a smpStormResult) mustMatch(t *testing.T, b smpStormResult, label string) {
	t.Helper()
	as, bs := a.stats, b.stats
	as.Parallel, bs.Parallel = false, false
	if as != bs {
		t.Errorf("%s: stats diverge: %+v vs %+v", label, a.stats, b.stats)
	}
	if a.traps != b.traps {
		t.Errorf("%s: traps diverge: %d vs %d", label, a.traps, b.traps)
	}
	if !reflect.DeepEqual(a.cycles, b.cycles) {
		t.Errorf("%s: cycles diverge: %v vs %v", label, a.cycles, b.cycles)
	}
	if !reflect.DeepEqual(a.irqs, b.irqs) {
		t.Errorf("%s: IRQ streams diverge: %v vs %v", label, a.irqs, b.irqs)
	}
}

func TestSMPJITStackMatchesInterpreted(t *testing.T) {
	const n, rounds = 4, 12
	mk := func(jit bool) *Stack {
		s := NewVMStack(StackOptions{CPUs: n})
		if jit {
			s.InstallJIT(2)
		}
		return s
	}
	for _, budget := range []uint64{500, 0} {
		opts := SMPOptions{EpochBudget: budget}
		popts := SMPOptions{EpochBudget: budget, Parallel: true}
		interp := runSMPStorm(mk(false), n, rounds, opts)
		jitSeq := runSMPStorm(mk(true), n, rounds, opts)
		jitPar := runSMPStorm(mk(true), n, rounds, popts)
		if !jitPar.stats.Parallel {
			t.Fatalf("budget %d: parallel JIT run fell back to sequential", budget)
		}
		jitSeq.mustMatch(t, interp, "jit-on seq vs jit-off")
		jitPar.mustMatch(t, interp, "jit-on par vs jit-off")
	}
	// The storm must actually storm: timer (27), device (29), and SGI
	// lines all delivered.
	seen := map[int]bool{}
	r := runSMPStorm(mk(false), n, rounds, SMPOptions{})
	for _, irqs := range r.irqs {
		for _, intid := range irqs {
			seen[intid] = true
		}
	}
	for _, intid := range []int{27, DevicePPI, 0} {
		if !seen[intid] {
			t.Errorf("INTID %d never delivered; irqs=%v", intid, r.irqs)
		}
	}
}

// TestSMPRunDetachesJIT pins the SMP/JIT contract: no engine dispatches
// while an SMP run is in flight (the whole-stack counters and the
// SMP-run counters both stand still), and the whole-stack engine is
// re-attached afterwards, so single-vCPU runs on the same stack replay
// super-ops again.
func TestSMPRunDetachesJIT(t *testing.T) {
	const n, rounds = 4, 12
	s := NewVMStack(StackOptions{CPUs: n})
	s.InstallJIT(2)
	total := func() trace.JITStats { return s.JITStats().Add(s.SMPJITStats()) }

	before := total()
	runSMPStorm(s, n, rounds, SMPOptions{EpochBudget: 2000, Parallel: true})
	if after := total(); after != before {
		t.Fatalf("an engine dispatched during the SMP run: %+v -> %+v", before, after)
	}

	// The storm left vCPU 0's virtual timer enabled, and evaluating an
	// enabled line poisons every recording: the guest disarms it first.
	hits := s.JITStats().Hits
	for i := 0; i < 3; i++ {
		s.RunGuest(0, func(g *GuestCtx) {
			g.CPU.MSR(arm.CNTV_CTL_EL0, 0)
			for j := 0; j < 8; j++ {
				g.Hypercall()
			}
		})
	}
	if got := s.JITStats().Hits; got <= hits {
		t.Fatalf("whole-stack engine not re-attached after the SMP run: hits %d -> %d", hits, got)
	}
}

func TestSMPAdaptiveBudgetEquivalence(t *testing.T) {
	const n = 4
	mkProgs := func(cycles []uint64) []func(g *SMPGuest) {
		progs := make([]func(g *SMPGuest), n)
		for i := 0; i < n; i++ {
			i := i
			progs[i] = func(g *SMPGuest) {
				// A chatty phase (traffic shrinks the budget) followed by a
				// long quiet one (zero traffic doubles it): the final budget
				// must land away from the default, and identically in both
				// modes.
				for r := 0; r < 6; r++ {
					g.Work(300)
					g.SendIPI((i+1)%n, r%MaxGuestSGI)
					g.Yield()
				}
				g.Work(600_000)
				cycles[i] = g.Cycles()
			}
		}
		return progs
	}
	run := func(parallel bool) (SMPStats, []uint64, uint64) {
		s := NewVMStack(StackOptions{CPUs: n})
		cycles := make([]uint64, n)
		st := s.RunSMPOpts(mkProgs(cycles), SMPOptions{Parallel: parallel, Adaptive: true})
		return st, cycles, s.M.Trace.Total()
	}
	seqSt, seqCycles, seqTraps := run(false)
	parSt, parCycles, parTraps := run(true)
	if !parSt.Parallel {
		t.Fatal("parallel adaptive run fell back to sequential")
	}
	parSt.Parallel = false
	if parSt != seqSt {
		t.Errorf("adaptive stats diverge: par %+v vs seq %+v", parSt, seqSt)
	}
	if !reflect.DeepEqual(parCycles, seqCycles) || parTraps != seqTraps {
		t.Errorf("adaptive guest state diverges: cycles %v vs %v, traps %d vs %d",
			parCycles, seqCycles, parTraps, seqTraps)
	}
	if seqSt.FinalBudget == defaultEpochBudget {
		t.Errorf("budget never moved from the default %d: %+v", uint64(defaultEpochBudget), seqSt)
	}
	if seqSt.FinalBudget < minEpochBudget || seqSt.FinalBudget > maxEpochBudget {
		t.Errorf("FinalBudget %d outside [%d, %d]", seqSt.FinalBudget,
			uint64(minEpochBudget), uint64(maxEpochBudget))
	}
}

func TestSMPFixedBudgetReported(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 2})
	st := s.RunSMPOpts([]func(g *SMPGuest){
		func(g *SMPGuest) { g.Work(5000) },
		func(g *SMPGuest) { g.Work(5000) },
	}, SMPOptions{Parallel: true, EpochBudget: 1234})
	if st.FinalBudget != 1234 {
		t.Fatalf("FinalBudget = %d, want the fixed 1234", st.FinalBudget)
	}
}
