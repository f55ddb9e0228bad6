package platform

import "testing"

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
// event recording or an active fault plan every trap runs interpreted (the
// engine reports no dispatches), because those modes keep or perturb
// individual traps the replay path would skip. Watchdog budgets keep the
// engine on: replay charges them, so the engine dispatches and the run —
// signature, trace counters and the watchdog's own counts — equals its
// JIT-off twin.
func TestJITInstallGates(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(*Spec)
		installed bool
	}{
		{"jit=off", func(s *Spec) { s.JITOff = true }, false},
		{"record-trace", func(s *Spec) { s.RecordTrace = true }, false},
		{"fault-plan", func(s *Spec) { s.Faults.Every = 1000 }, false},
		{"max-traps", func(s *Spec) { s.MaxTraps = 1 << 30 }, true},
		{"max-steps", func(s *Spec) { s.MaxSteps = 1 << 40 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := MustLookup("neve")
			spec.CPUs = 2
			tc.mutate(&spec)
			p := MustBuild(spec)
			sig := runCellSignature(p)
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
			spec.JITOff = true
			off := MustBuild(spec)
			if want := runCellSignature(off); sig != want {
				t.Fatalf("%s: run differs from its JIT-off twin:\njit-on:\n%s\njit-off:\n%s", tc.name, sig, want)
			}
			if w, wo := p.Watchdog(), off.Watchdog(); w.Traps() != wo.Traps() || w.Steps() != wo.Steps() {
				t.Fatalf("%s: watchdog counted %d traps, %d steps; JIT-off twin %d, %d",
					tc.name, w.Traps(), w.Steps(), wo.Traps(), wo.Steps())
			}
		})
	}
}
