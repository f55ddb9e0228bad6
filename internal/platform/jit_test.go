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

// TestJITInstallGates pins where the JIT must not be installed: under
// event recording, an active fault plan, or watchdog budgets, every trap
// runs interpreted (the engine reports no dispatches), because those modes
// observe or perturb state the replay path would skip.
func TestJITInstallGates(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"jit=off", func(s *Spec) { s.JITOff = true }},
		{"record-trace", func(s *Spec) { s.RecordTrace = true }},
		{"fault-plan", func(s *Spec) { s.Faults.Every = 1000 }},
		{"max-traps", func(s *Spec) { s.MaxTraps = 1 << 30 }},
		{"max-steps", func(s *Spec) { s.MaxSteps = 1 << 40 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := MustLookup("neve")
			spec.CPUs = 2
			tc.mutate(&spec)
			p := MustBuild(spec)
			runCellSignature(p)
			if got := p.JITStats(); got.Hits|got.Misses|got.Bailouts != 0 {
				t.Fatalf("%s: JIT dispatched anyway: %+v", tc.name, got)
			}
		})
	}
}
