package fleet

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/nevesim/neve/internal/bench"
)

// The tests spawn REAL worker processes by re-executing this test
// binary: TestMain diverts into the worker serve loop when the marker
// env var is set, so crash recovery is exercised against genuine
// process deaths (os.Exit mid-cell), not an in-process simulation.
const workerEnv = "NEVE_FLEET_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testOptions is the small-sweep base every test starts from: two ARM
// configurations (one nested) over two workers.
func testOptions(t *testing.T) Options {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Workers:   2,
		WorkerCmd: []string{exe},
		WorkerEnv: []string{workerEnv + "=1"},
		Configs:   []bench.ConfigID{bench.ARMVM, bench.NEVENested},
	}
}

// sameSim reports whether two sweeps' rows are equal in every simulated
// field; the JIT counters are host-side (bench.MicroResult.Sim).
func sameSim(a, b *SweepResult) bool {
	if len(a.Micro) != len(b.Micro) || len(a.Apps) != len(b.Apps) {
		return false
	}
	for i := range a.Micro {
		if !reflect.DeepEqual(a.Micro[i].Sim(), b.Micro[i].Sim()) {
			return false
		}
	}
	for i := range a.Apps {
		if !reflect.DeepEqual(a.Apps[i].Sim(), b.Apps[i].Sim()) {
			return false
		}
	}
	return true
}

func mustRun(t *testing.T, opts Options) *SweepResult {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetMatchesHarness: the tentpole gate. A multi-worker fleet
// sweep merges to rows deeply equal — and tables byte-identical — to a
// single-process Harness run.
func TestFleetMatchesHarness(t *testing.T) {
	opts := testOptions(t)
	opts.StoreDir = t.TempDir()
	res := mustRun(t, opts)
	if res.Stats.Degraded != 0 {
		t.Fatalf("healthy fleet degraded %d cells: %+v", res.Stats.Degraded, res.Degraded)
	}
	if err := res.Check(opts.Reference()); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Store.Saves == 0 {
		t.Fatalf("no worker saved a checkpoint (store stats %+v)", res.Stats.Store)
	}
}

// TestFleetCrashRecovery: the acceptance scenario in one sweep — a
// worker killed mid-sweep (process exit without a reply, holding a
// cell) AND watchdog-faulted cells. The orchestrator respawns the
// worker, retries the lost cell per the backoff policy, keeps the
// deterministic fault rows as results, and the merged report is still
// byte-identical to the in-process harness.
func TestFleetCrashRecovery(t *testing.T) {
	opts := testOptions(t)
	opts.StoreDir = t.TempDir()
	opts.CrashWorker = 0
	opts.CrashAfter = 2 // complete one cell, die holding the second
	opts.MaxTraps = 40  // faults the nested micro cells as well
	var log bytes.Buffer
	opts.Log = &log
	res := mustRun(t, opts)
	if res.Stats.Retries == 0 {
		t.Fatalf("injected crash produced no retry (log:\n%s)", log.String())
	}
	if res.Stats.Respawns == 0 {
		t.Fatalf("injected crash produced no respawn (log:\n%s)", log.String())
	}
	if res.Stats.Degraded != 0 {
		t.Fatalf("crash within the retry budget degraded cells: %+v", res.Degraded)
	}
	faulted := 0
	for _, r := range res.Micro {
		if r.Fault != nil {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no watchdog-faulted cell in the crash sweep")
	}
	if err := res.Check(opts.Reference()); err != nil {
		t.Fatalf("%v\n(log:\n%s)", err, log.String())
	}
}

// TestFleetWatchdogFaultRows: a livelocked cell is a deterministic
// RESULT (a CellFault row), not a crash — the fleet does not burn
// retries on it, and the row matches the in-process harness exactly.
func TestFleetWatchdogFaultRows(t *testing.T) {
	opts := testOptions(t)
	opts.MaxTraps = 40 // faults the nested micro cells, passes ARMVM
	res := mustRun(t, opts)
	if res.Stats.Retries != 0 {
		t.Fatalf("deterministic cell faults consumed %d retries", res.Stats.Retries)
	}
	faulted := 0
	for _, r := range res.Micro {
		if r.Fault != nil {
			faulted++
			if r.Fault.Kind != "trap-storm" {
				t.Errorf("%v/%v: fault kind %q; want trap-storm", r.Op, r.Config, r.Fault.Kind)
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no micro cell faulted under a 40-trap budget")
	}
	if err := res.Check(opts.Reference()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetDegradedCells: when workers die and the respawn budget is
// exhausted, the sweep still converges — the unobserved cells are
// marked degraded with typed fault rows instead of failing or hanging
// the sweep.
func TestFleetDegradedCells(t *testing.T) {
	opts := testOptions(t)
	opts.Workers = 1
	opts.CrashWorker = 0
	opts.CrashAfter = 1   // die on the very first cell
	opts.MaxRespawns = -1 // and forbid the replacement
	res := mustRun(t, opts)
	if res.Stats.Degraded != res.Stats.Cells {
		t.Fatalf("degraded %d of %d cells; want all (no workers survive)",
			res.Stats.Degraded, res.Stats.Cells)
	}
	for _, r := range res.Micro {
		if r.Fault == nil || r.Fault.Kind != "degraded" {
			t.Fatalf("%v/%v: degraded cell carries fault %+v; want kind degraded", r.Op, r.Config, r.Fault)
		}
	}
	// The merged tables still render (ERR:degraded cells), and the
	// equivalence gate refuses a sweep with missing observations.
	if res.Tables() == "" {
		t.Fatal("degraded sweep rendered empty tables")
	}
	if err := res.Check(opts.Reference()); err == nil {
		t.Fatal("Check accepted a sweep with degraded cells")
	}

	// A single crash WITH a respawn available converges cleanly.
	opts2 := testOptions(t)
	opts2.Workers = 1
	opts2.CrashWorker = 0
	opts2.CrashAfter = 1
	opts2.MaxRespawns = 1
	res2 := mustRun(t, opts2)
	if res2.Stats.Degraded != 0 {
		t.Fatalf("one crash with a respawn available degraded cells: %+v", res2.Degraded)
	}
	if err := res2.Check(opts2.Reference()); err != nil {
		t.Fatal(err)
	}

	// A command that cannot run at all: Run reports the fleet never
	// started instead of returning an all-degraded sweep.
	bad := testOptions(t)
	bad.WorkerCmd = []string{"/nonexistent-fleet-worker"}
	if _, err := Run(bad); err == nil {
		t.Fatal("fleet with an unrunnable worker command reported success")
	}
}

// TestFleetStoreSharedAcrossRestart: a second orchestrator run over the
// same store directory (an orchestrator restart with fresh workers)
// boots every cell from the checkpoints the first run saved.
func TestFleetStoreSharedAcrossRestart(t *testing.T) {
	opts := testOptions(t)
	opts.StoreDir = t.TempDir()
	first := mustRun(t, opts)
	if first.Stats.Store.Saves == 0 {
		t.Fatalf("first run saved nothing (store stats %+v)", first.Stats.Store)
	}

	second := mustRun(t, opts) // fresh orchestrator + fresh workers
	if second.Stats.Store.Hits == 0 {
		t.Fatalf("restarted fleet hit no checkpoints (store stats %+v)", second.Stats.Store)
	}
	if second.Stats.Store.Corrupt != 0 {
		t.Fatalf("restart detected spurious corruption (store stats %+v)", second.Stats.Store)
	}
	if !sameSim(first, second) {
		t.Fatal("restarted fleet produced different rows")
	}
}

// TestFleetSurvivesCorruptStore: pre-corrupting every store entry
// before a restarted sweep forces cold boots — detected, counted, and
// byte-identical results.
func TestFleetSurvivesCorruptStore(t *testing.T) {
	opts := testOptions(t)
	opts.StoreDir = t.TempDir()
	first := mustRun(t, opts)

	entries, err := os.ReadDir(opts.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no store entries written")
	}
	for _, e := range entries {
		path := opts.StoreDir + "/" + e.Name()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x40 // bit-flip mid-file
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	second := mustRun(t, opts)
	if second.Stats.Store.Corrupt == 0 {
		t.Fatalf("corrupted store produced no corruption detections (stats %+v)", second.Stats.Store)
	}
	if !sameSim(first, second) {
		t.Fatal("corrupt-store sweep produced different rows")
	}
}

// TestGridShape: the declarative desired state covers the full
// configuration x benchmark product in harness order.
func TestGridShape(t *testing.T) {
	cfgs := bench.AllConfigs()
	cells := grid(cfgs)
	wantMicro := len(bench.MicroOps()) * len(cfgs)
	if len(cells) <= wantMicro {
		t.Fatalf("grid has %d cells; want micro (%d) plus app cells", len(cells), wantMicro)
	}
	for i, c := range cells {
		if i < wantMicro && c.Kind != "micro" {
			t.Fatalf("cell %d: kind %q; want micro", i, c.Kind)
		}
		if i >= wantMicro && c.Kind != "app" {
			t.Fatalf("cell %d: kind %q; want app", i, c.Kind)
		}
	}
}
