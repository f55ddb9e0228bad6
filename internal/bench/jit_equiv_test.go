package bench

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/nevesim/neve/internal/trace"
)

// TestJITGoldenEquiv is the trace-JIT correctness gate at the artifact
// level: every measured table and figure must be byte-identical with the
// JIT enabled (super-ops replaying hot trap sequences) and disabled (every
// trap interpreted). The JIT may only change wall time, never a simulated
// cycle, trap count, or event. harness.go's JITOff doc points here.
func TestJITGoldenEquiv(t *testing.T) {
	if testing.Short() {
		t.Skip("two full suite sweeps")
	}
	on := Harness{}
	off := Harness{JITOff: true}

	onMicro := on.RunAllMicro()
	offMicro := off.RunAllMicro()
	artifacts := []struct {
		name      string
		got, want string
	}{
		{"table1", FormatTable1(onMicro), FormatTable1(offMicro)},
		{"table6", FormatTable6(onMicro), FormatTable6(offMicro)},
		{"table7", FormatTable7(onMicro), FormatTable7(offMicro)},
		{"fig2", FormatFigure2(on.RunFigure2()), FormatFigure2(off.RunFigure2())},
		{"ablation", FormatAblation(on.RunAblation(false)), FormatAblation(off.RunAblation(false))},
	}
	for _, a := range artifacts {
		if a.got != a.want {
			t.Errorf("%s differs jit-on vs jit-off\n--- jit-on\n%s--- jit-off\n%s", a.name, a.got, a.want)
		}
	}

	// The jit-on sweep must actually have exercised the JIT, or the
	// comparison above proves nothing.
	var hits uint64
	for _, c := range onMicro {
		hits += c.JIT.Hits
	}
	if hits == 0 {
		t.Fatalf("jit-on sweep recorded zero super-op hits")
	}
	// And the jit-off sweep must not have: JITOff is the interpreted
	// baseline, so any dispatch counter there is a wiring bug.
	for _, c := range offMicro {
		if c.JIT.Hits|c.JIT.Misses|c.JIT.Bailouts != 0 {
			t.Fatalf("jit-off cell %s/%s has dispatch counters %+v", c.Config, c.Op, c.JIT)
		}
	}
}

// TestJITWarmOrderIndependence pins what keeping compiled super-ops
// across warm restores may and may not change. One warm CellRunner runs
// the Figure 2 grid in three seeded orders, so each pooled platform
// carries the ops of different earlier cells into every cell. Every row's
// simulated fields must equal the JIT-off reference regardless, and the
// retained ops must cover the third pass: it replays, and compiles no new
// super-op.
func TestJITWarmOrderIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("four Figure 2 sweeps")
	}
	want := Harness{Parallelism: 1, JITOff: true}.RunFigure2()
	runner := Harness{Parallelism: 1}.NewCellRunner()
	ops := func() (n int) {
		for _, pool := range runner.cache.pools {
			for _, e := range pool {
				if s := e.p.ARM(); s != nil {
					n += s.JITOps()
				}
			}
		}
		return n
	}
	var last trace.JITStats
	var before int
	for pass, seed := range []uint64{1, 2, 3} {
		last, before = trace.JITStats{}, ops()
		for _, i := range rand.New(rand.NewPCG(seed, 0)).Perm(len(want)) {
			ref := want[i]
			got, err := runner.App(ref.Config, ref.Workload)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Sim(), ref.Sim()) {
				t.Fatalf("pass %d: %s/%s diverges from jit-off:\n got %+v\nwant %+v", pass+1, ref.Workload, ref.Config, got.Sim(), ref.Sim())
			}
			last = last.Add(got.JIT)
		}
	}
	after := ops()
	t.Logf("third pass: %+v, super-ops %d -> %d", last, before, after)
	if last.Hits == 0 || after == 0 {
		t.Fatalf("third pass replayed nothing: %+v, %d super-ops", last, after)
	}
	if after != before {
		t.Fatalf("third pass compiled %d new super-ops (%d -> %d)", after-before, before, after)
	}
}

// TestJITWatchdogFaultParity: the trace-JIT stays on under watchdog
// budgets, and a warm CellRunner's rows — faults included — must equal the
// interpreted rows. A 60,000-trap budget faults several Figure 2 cells
// mid-run on the five ARM configurations; two passes over one runner put
// retained super-ops under every cell, faulted ones included.
func TestJITWatchdogFaultParity(t *testing.T) {
	if testing.Short() {
		t.Skip("three guarded Figure 2 sweeps")
	}
	h := Harness{Parallelism: 1, Configs: []ConfigID{ARMVM, ARMNested, ARMNestedVHE, NEVENested, NEVENestedVHE}, MaxTraps: 60_000}
	off := h
	off.JITOff = true
	want := off.RunFigure2()
	faulted := 0
	for _, r := range want {
		if r.Fault != nil {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(want) {
		t.Fatalf("%d of %d cells faulted; the budget must fault some cells and pass others", faulted, len(want))
	}
	runner := h.NewCellRunner()
	var js trace.JITStats
	for pass := 1; pass <= 2; pass++ {
		for _, ref := range want {
			got, err := runner.App(ref.Config, ref.Workload)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Sim(), ref.Sim()) {
				t.Fatalf("pass %d: %s/%s diverges from jit-off:\n got %+v fault %v\nwant %+v fault %v",
					pass, ref.Workload, ref.Config, got.Sim(), got.Fault, ref.Sim(), ref.Fault)
			}
			js = js.Add(got.JIT)
		}
	}
	if js.Hits == 0 {
		t.Fatalf("guarded runner replayed nothing: %+v", js)
	}
}
