package bench

import (
	"reflect"
	"testing"

	"github.com/nevesim/neve/internal/platform"
)

// TestWatchdogFaultRowsCompleteSweep: with per-cell trap budgets set, a
// configuration that overruns its budget yields a typed CellFault row —
// and every other cell of the sweep still completes with normal
// measurements. The sweep itself never fails or hangs.
func TestWatchdogFaultRowsCompleteSweep(t *testing.T) {
	// The nested ARM configurations take >80 traps per microbenchmark op;
	// ARMVM takes a handful and VirtualEOI none. A 40-trap budget faults
	// the nested cells and passes the rest.
	h := Harness{Parallelism: 2, MaxTraps: 40}
	results := h.RunAllMicro()
	if len(results) != len(MicroOps())*len(AllConfigs()) {
		t.Fatalf("sweep returned %d rows; want the full grid", len(results))
	}
	faulted, ok := 0, 0
	for _, r := range results {
		if r.Fault != nil {
			faulted++
			if r.Fault.Kind != "trap-storm" {
				t.Errorf("%v/%v: fault kind %q; want trap-storm", r.Op, r.Config, r.Fault.Kind)
			}
			if r.Cycles != 0 || r.Traps != 0 {
				t.Errorf("%v/%v: faulted row carries measurements (%d cycles)", r.Op, r.Config, r.Cycles)
			}
			if r.Fault.Traps <= 40 {
				t.Errorf("%v/%v: fault reports %d traps; want > budget", r.Op, r.Config, r.Fault.Traps)
			}
		} else {
			ok++
			if r.Config.IsARM() && r.Op != VirtualEOI && r.Cycles == 0 {
				t.Errorf("%v/%v: healthy cell measured 0 cycles", r.Op, r.Config)
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no cell faulted under a 40-trap budget; the watchdog is not attached")
	}
	if ok == 0 {
		t.Fatal("every cell faulted; budgets are not per-cell")
	}

	// Deterministic: the same budgets produce byte-identical simulated
	// rows, including the fault fields — the property fleet merging relies
	// on. The trace-JIT stays on under budgets, and its host-side counters
	// depend on what each pooled platform ran before (Sim drops them).
	again := Harness{Parallelism: 1, MaxTraps: 40}.RunAllMicro()
	if len(again) != len(results) {
		t.Fatalf("sequential sweep returned %d rows, parallel %d", len(again), len(results))
	}
	for i := range results {
		if !reflect.DeepEqual(results[i].Sim(), again[i].Sim()) {
			t.Fatalf("%v/%v: fault rows differ between parallel and sequential runs:\n%+v\n%+v",
				results[i].Op, results[i].Config, results[i].Sim(), again[i].Sim())
		}
	}
}

// TestWatchdogBudgetsResetPerCell: pooled warm-boot platforms must not
// leak one cell's trap consumption into the next — N cells under a
// budget that any single cell fits within must all pass.
func TestWatchdogBudgetsResetPerCell(t *testing.T) {
	h := Harness{Parallelism: 1, Configs: []ConfigID{ARMVM}, MaxTraps: 200}
	runner := h.NewCellRunner()
	for i := 0; i < 5; i++ {
		r := runner.Micro(ARMVM, Hypercall)
		if r.Fault != nil {
			t.Fatalf("cell %d faulted: %v — budgets accumulated across pooled cells", i, r.Fault)
		}
	}
}

// TestAppSweepFaultRows: the Figure 2 path reports faults the same way.
func TestAppSweepFaultRows(t *testing.T) {
	// The profiles differ in total guest work by orders of magnitude; a
	// 20M-step budget fails only the heaviest (compile/JVM-scale)
	// workloads and passes the request/response ones.
	h := Harness{Parallelism: 2, Configs: []ConfigID{ARMVM, NEVENested}, MaxSteps: 20_000_000}
	results := h.RunFigure2()
	faulted := 0
	for _, r := range results {
		if r.Fault != nil {
			faulted++
			if r.Fault.Kind != "step-budget" {
				t.Errorf("%s/%v: kind %q; want step-budget", r.Workload, r.Config, r.Fault.Kind)
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no app cell faulted under a 25k step budget")
	}
	if faulted == len(results) {
		t.Fatal("every app cell faulted; expected the budget to bite selectively")
	}
}

// TestStoreBackedHarnessEquivalence: a store-backed sweep produces rows
// byte-identical to a storeless one, the store fills on the first run
// and serves hits on the next (standing in for a fresh worker process),
// and the report carries the counters.
func TestStoreBackedHarnessEquivalence(t *testing.T) {
	dir := t.TempDir()
	st, err := platform.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []ConfigID{ARMVM, NEVENested}
	want := Harness{Parallelism: 1, Configs: cfgs}.RunAllMicro()

	got := Harness{Parallelism: 1, Configs: cfgs, Store: st}.RunAllMicro()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("store-backed sweep rows differ from storeless rows")
	}
	if s := st.Stats(); s.Saves == 0 {
		t.Fatalf("first run saved nothing (stats %+v)", s)
	}

	st2, err := platform.OpenCheckpointStore(dir) // "fresh worker"
	if err != nil {
		t.Fatal(err)
	}
	got2 := Harness{Parallelism: 1, Configs: cfgs, Store: st2}.RunAllMicro()
	if !reflect.DeepEqual(want, got2) {
		t.Fatal("store-served sweep rows differ from storeless rows")
	}
	s := st2.Stats()
	if s.Hits == 0 {
		t.Fatalf("second process hit nothing (stats %+v)", s)
	}
	if s.Corrupt != 0 {
		t.Fatalf("spurious corruption detected (stats %+v)", s)
	}
}
