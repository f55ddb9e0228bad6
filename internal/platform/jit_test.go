package platform

import (
	"errors"
	"fmt"
	"testing"

	"github.com/nevesim/neve/internal/fault"
)

// TestJITSnapshotRetain pins the snapshot/restore contract with the
// trace-JIT layer: compiled super-ops outlive a restore, so the restored
// run replays from its first dispatch instead of re-recording — more hits
// and fewer misses than the first run — while producing the same measured
// output as ever (TestSnapshotRestoreEquivalence covers every artifact).
func TestJITSnapshotRetain(t *testing.T) {
	// v8.3 rather than neve: the non-VHE NEVE world switch syncs the
	// deferred access page in RAM, which poisons every recording (memory
	// is outside the replay guard), so that config never promotes.
	spec := MustLookup("v8.3")
	spec.CPUs = 2
	p := MustBuild(spec)
	cp := p.Snapshot()

	first := runCellSignature(p)
	js := p.JITStats()
	if js.Hits == 0 {
		t.Fatalf("jit-on run produced no super-op hits: %+v", js)
	}

	p.Restore(cp)
	if got := p.JITStats(); got != js {
		t.Fatalf("restore changed the dispatch counters: %+v, want %+v", got, js)
	}
	if got := runCellSignature(p); got != first {
		t.Fatalf("restored run diverged:\nfirst:\n%s\ngot:\n%s", first, got)
	}
	again := p.JITStats().Sub(js)
	if again.Hits <= js.Hits || again.Misses >= js.Misses {
		t.Fatalf("restored run did not replay the retained ops: first %+v, restored %+v", js, again)
	}
}

// TestJITInstallGates pins where the JIT is and is not installed. Under
// event recording every trap runs interpreted (the engine reports no
// dispatches), because that mode keeps individual traps the replay path
// would skip. Watchdog budgets and fault plans keep the engine on: replay
// charges them and runs interpreted any op that would cross a budget trip
// or a firing injection, so the engine dispatches and the run — signature,
// trace counters, injection log, any SimError and the watchdog's own
// counts — equals its JIT-off twin. The nested-plan row fires inside
// recordings that span a v8.3 guest hypervisor's nested traps, where an
// injection must poison the recording rather than be harvested into an
// op that replays it later.
func TestJITInstallGates(t *testing.T) {
	cases := []struct {
		name      string
		config    string
		mutate    func(*Spec)
		installed bool
	}{
		{"jit=off", "neve", func(s *Spec) { s.JITOff = true }, false},
		{"record-trace", "neve", func(s *Spec) { s.RecordTrace = true }, false},
		{"fault-plan", "neve", func(s *Spec) { s.Faults = fault.Plan{Seed: 7, Every: 40, Count: 6} }, true},
		{"fault-plan-nested", "v8.3", func(s *Spec) {
			s.Faults = fault.Plan{Seed: 7, Every: 97, Count: 8}
			s.MaxTraps = 100_000
		}, true},
		{"max-traps", "neve", func(s *Spec) { s.MaxTraps = 1 << 30 }, true},
		{"max-steps", "neve", func(s *Spec) { s.MaxSteps = 1 << 40 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := MustLookup(tc.config)
			spec.CPUs = 2
			tc.mutate(&spec)
			p := MustBuild(spec)
			sig := guardedSignature(t, p)
			got := p.JITStats()
			if !tc.installed {
				if got.Hits|got.Misses|got.Bailouts != 0 {
					t.Fatalf("%s: JIT dispatched anyway: %+v", tc.name, got)
				}
				return
			}
			if got.Hits == 0 {
				t.Fatalf("%s: JIT replayed nothing: %+v", tc.name, got)
			}
			if spec.Faults.Active() && p.Injector().Injected() == 0 {
				t.Fatalf("%s: the plan never fired", tc.name)
			}
			spec.JITOff = true
			off := MustBuild(spec)
			if want := guardedSignature(t, off); sig != want {
				t.Fatalf("%s: run differs from its JIT-off twin:\njit-on:\n%s\njit-off:\n%s", tc.name, sig, want)
			}
			if w, wo := p.Watchdog(), off.Watchdog(); w != nil && (w.Traps() != wo.Traps() || w.Steps() != wo.Steps()) {
				t.Fatalf("%s: watchdog counted %d traps, %d steps; JIT-off twin %d, %d",
					tc.name, w.Traps(), w.Steps(), wo.Traps(), wo.Steps())
			}
		})
	}
}

// guardedSignature is runCellSignature behind the recovery boundary, plus
// the injection log and the SimError of a run that died. The error's Go
// stack is left out: replayed and interpreted runs die in different frames.
func guardedSignature(t *testing.T, p Platform) string {
	t.Helper()
	var sig string
	err := p.Protect(func() { sig = runCellSignature(p) })
	if inj := p.Injector(); inj != nil {
		sig += fmt.Sprintf("injected %q\n", inj.Log())
	}
	if err != nil {
		var se *fault.SimError
		if !errors.As(err, &se) {
			t.Fatalf("non-SimError failure: %v", err)
		}
		se.Stack = ""
		sig += se.Diagnostic()
	}
	return sig
}
