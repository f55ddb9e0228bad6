package platform

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/kvm"
)

// TestFaultsOffByDefault: every registry spec builds with no fault
// machinery attached — no injector, no CPU budget, no trace ring — so
// the hot path and the paper goldens are untouched.
func TestFaultsOffByDefault(t *testing.T) {
	for _, spec := range Registry() {
		p := MustBuild(spec)
		if p.Injector() != nil {
			t.Errorf("%s: injector attached without a fault plan", spec.Name)
		}
		if s := p.ARM(); s != nil {
			for i, c := range s.M.CPUs {
				if c.Budget != nil {
					t.Errorf("%s: cpu%d has fault hooks installed", spec.Name, i)
				}
			}
			if s.M.Trace.Recent() != nil {
				t.Errorf("%s: trace ring enabled without a fault plan", spec.Name)
			}
		}
		if s := p.X86(); s != nil {
			for i, c := range s.CPUs {
				if c.Budget != nil {
					t.Errorf("%s: cpu%d has fault hooks installed", spec.Name, i)
				}
			}
		}
	}
}

// TestRunGuestErrRecoversGuestBug: a guest-triggered model panic (EL1
// touching an EL2 register without FEAT_NV) comes back as a typed
// *fault.SimError naming the faulting register, not a process crash.
func TestRunGuestErrRecoversGuestBug(t *testing.T) {
	p := MustBuild(MustLookup("vm"))
	err := p.RunGuestErr(0, func(g Guest) {
		g.(*kvm.GuestCtx).CPU.MSR(arm.HCR_EL2, 0)
	})
	var se *fault.SimError
	if !errors.As(err, &se) {
		t.Fatalf("RunGuestErr = %v, want *fault.SimError", err)
	}
	if se.Kind != fault.ErrPanic {
		t.Errorf("Kind = %v, want panic", se.Kind)
	}
	if se.Reg != "HCR_EL2" {
		t.Errorf("faulting register = %q, want HCR_EL2", se.Reg)
	}
	if se.Cycle == 0 {
		t.Error("SimError carries no cycle count")
	}
	if se.Stack == "" {
		t.Error("SimError carries no stack")
	}
	if !strings.Contains(se.Diagnostic(), "HCR_EL2") {
		t.Errorf("Diagnostic does not name the register:\n%s", se.Diagnostic())
	}
}

// TestWatchdogCatchesTrapStorm is the acceptance scenario: a guest that
// traps forever on a budgeted platform is aborted by the watchdog with an
// actionable diagnostic — the budget that tripped, the virtualization
// level, and a recent-trap history showing what kept faulting — instead
// of hanging the run.
func TestWatchdogCatchesTrapStorm(t *testing.T) {
	spec := MustLookup("neve")
	spec.MaxTraps = 200
	p := MustBuild(spec)
	err := p.RunGuestErr(0, func(g Guest) {
		for { // the livelock: an unbounded trap storm
			g.Hypercall()
		}
	})
	var se *fault.SimError
	if !errors.As(err, &se) {
		t.Fatalf("RunGuestErr = %v, want *fault.SimError", err)
	}
	if se.Kind != fault.ErrTrapStorm {
		t.Fatalf("Kind = %v, want trap-storm", se.Kind)
	}
	if se.Traps <= 200 {
		t.Errorf("Traps = %d, want > budget 200", se.Traps)
	}
	if len(se.Recent) == 0 {
		t.Fatal("no recent trap history in the diagnostic")
	}
	d := se.Diagnostic()
	if !strings.Contains(d, "trap budget 200") {
		t.Errorf("diagnostic does not name the budget:\n%s", d)
	}
	if !strings.Contains(d, "hvc") {
		t.Errorf("diagnostic's trap history does not show the storming hvc:\n%s", d)
	}
	if se.Level < 1 {
		t.Errorf("Level = %d, want the trapping guest's level (>= 1)", se.Level)
	}
}

// TestWatchdogCatchesStepOverrun: the step budget bounds guests that burn
// instructions without trapping at all.
func TestWatchdogCatchesStepOverrun(t *testing.T) {
	spec := MustLookup("vm")
	spec.MaxSteps = 10_000
	p := MustBuild(spec)
	err := p.RunGuestErr(0, func(g Guest) {
		for {
			g.Work(1000)
		}
	})
	var se *fault.SimError
	if !errors.As(err, &se) {
		t.Fatalf("RunGuestErr = %v, want *fault.SimError", err)
	}
	if se.Kind != fault.ErrStepBudget {
		t.Fatalf("Kind = %v, want step-budget", se.Kind)
	}
	if se.Steps <= 10_000 {
		t.Errorf("Steps = %d, want > budget", se.Steps)
	}
}

// TestWatchdogBudgetsOnX86: the same budgets guard the comparator stack.
func TestWatchdogBudgetsOnX86(t *testing.T) {
	spec := MustLookup("x86-nested")
	spec.MaxTraps = 100
	p := MustBuild(spec)
	err := p.RunGuestErr(0, func(g Guest) {
		for {
			g.Hypercall()
		}
	})
	var se *fault.SimError
	if !errors.As(err, &se) {
		t.Fatalf("RunGuestErr = %v, want *fault.SimError", err)
	}
	if se.Kind != fault.ErrTrapStorm {
		t.Fatalf("Kind = %v, want trap-storm", se.Kind)
	}
}

// faultWorkload drives a fixed mixed workload that traps steadily, giving
// the injector a schedule to fire on.
func faultWorkload(g Guest) {
	for i := 0; i < 400; i++ {
		g.Hypercall()
		g.Work(50)
		if i%16 == 0 {
			g.DeviceRead(0)
		}
	}
}

// TestInjectorReplaysDeterministically: the same plan against the same
// workload applies the identical fault sequence — the property that makes
// a fuzz finding replayable from its seed.
func TestInjectorReplaysDeterministically(t *testing.T) {
	run := func() ([]string, error) {
		spec := MustLookup("neve")
		spec.Faults = fault.Plan{Seed: 42, Every: 50}
		spec.MaxTraps = 2_000_000 // backstop, not expected to fire
		p := MustBuild(spec)
		err := p.RunGuestErr(0, faultWorkload)
		return p.Injector().Log(), err
	}
	log1, err1 := run()
	log2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("replay diverged: %v vs %v", err1, err2)
	}
	if len(log1) == 0 {
		t.Fatal("injector never fired (workload too small for every=50?)")
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("injection logs diverged:\n%v\nvs\n%v", log1, log2)
	}
	t.Logf("replayed %d injections: %v", len(log1), log1)
}

// TestInjectorSurvivableOnEveryARMStack: a modest injection schedule on
// each ARM registry stack either completes or fails with a typed SimError
// — never a raw panic and never a hang (the watchdog backstops it).
func TestInjectorSurvivableOnEveryARMStack(t *testing.T) {
	for _, name := range []string{"vm", "v8.3", "neve", "neve-vhe", "recursive-neve"} {
		spec := MustLookup(name)
		spec.Faults = fault.Plan{Seed: 7, Every: 100, Count: 8}
		spec.MaxTraps = 5_000_000
		p := MustBuild(spec)
		err := p.RunGuestErr(0, faultWorkload)
		if err != nil {
			var se *fault.SimError
			if !errors.As(err, &se) {
				t.Errorf("%s: non-SimError failure %v", name, err)
				continue
			}
			t.Logf("%s: workload died under injection (acceptable): %v", name, se)
		}
		if p.Injector().Injected() == 0 {
			t.Errorf("%s: no faults applied", name)
		}
	}
}

// TestVNCRCorruptOnlyFiresOnNEVE: the vncr kind is inapplicable on stacks
// without deferred access pages; a kinds=vncr plan must apply nothing
// there and must apply on a NEVE stack.
func TestVNCRCorruptOnlyFiresOnNEVE(t *testing.T) {
	run := func(name string) int {
		spec := MustLookup(name)
		spec.Faults = fault.Plan{Seed: 3, Every: 50, Kinds: []fault.Kind{fault.VNCRCorrupt}}
		spec.MaxTraps = 5_000_000
		p := MustBuild(spec)
		if err := p.RunGuestErr(0, faultWorkload); err != nil {
			t.Logf("%s: %v", name, err)
		}
		return p.Injector().Injected()
	}
	if n := run("v8.3"); n != 0 {
		t.Errorf("v8.3 (no NEVE pages) applied %d vncr corruptions", n)
	}
	if n := run("neve"); n == 0 {
		t.Error("neve stack applied no vncr corruptions")
	}
}
