package bench

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestParallelMatchesSequential is the determinism gate for the parallel
// harness: the paper's numbers are emergent (trap counts, cycle counts),
// so the worker pool is only acceptable if it changes nothing. Run the
// full micro + Figure 2 suites with one worker and with many and require
// bit-identical results, not just statistically similar ones.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full double suite sweep")
	}
	seq := Harness{Parallelism: 1}
	par := Harness{Parallelism: 8}

	seqMicro := seq.RunAllMicro()
	seqApps := seq.RunFigure2()

	parMicro := par.RunAllMicro()
	parApps := par.RunFigure2()

	if len(seqMicro) != len(parMicro) {
		t.Fatalf("micro cell count: sequential %d, parallel %d", len(seqMicro), len(parMicro))
	}
	for i := range seqMicro {
		s, p := seqMicro[i], parMicro[i]
		if s.Sim() != p.Sim() {
			t.Errorf("micro cell %d (%s/%s): sequential {cycles %d traps %d}, parallel {cycles %d traps %d}",
				i, s.Op, s.Config, s.Cycles, s.Traps, p.Cycles, p.Traps)
		}
	}

	if len(seqApps) != len(parApps) {
		t.Fatalf("fig2 cell count: sequential %d, parallel %d", len(seqApps), len(parApps))
	}
	for i := range seqApps {
		s, p := seqApps[i], parApps[i]
		if s.Workload != p.Workload || s.Config != p.Config {
			t.Fatalf("fig2 cell %d order diverged: sequential %s/%s, parallel %s/%s",
				i, s.Workload, s.Config, p.Workload, p.Config)
		}
		if s.Overhead != p.Overhead || !reflect.DeepEqual(s.Raw, p.Raw) {
			t.Errorf("fig2 cell %d (%s/%s): sequential overhead %v raw %+v, parallel overhead %v raw %+v",
				i, s.Workload, s.Config, s.Overhead, s.Raw, p.Overhead, p.Raw)
		}
	}
}

// TestParallelMatchesSequentialAblation extends the gate to the ablation
// and event views, which share the worker pool.
func TestParallelMatchesSequentialAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("double ablation sweep")
	}
	seq := Harness{Parallelism: 1}
	par := Harness{Parallelism: 8}
	cfgs := []ConfigID{ARMNested, NEVENested}

	seqAbl := seq.RunAblation(false)
	seqEv := seq.RunFigure2Events(cfgs)
	parAbl := par.RunAblation(false)
	parEv := par.RunFigure2Events(cfgs)

	if !reflect.DeepEqual(seqAbl, parAbl) {
		t.Errorf("ablation diverged:\nsequential %+v\nparallel   %+v", seqAbl, parAbl)
	}
	if !reflect.DeepEqual(seqEv, parEv) {
		t.Errorf("fig2 events diverged:\nsequential %+v\nparallel   %+v", seqEv, parEv)
	}
}

func TestForEachCellCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		h := Harness{Parallelism: workers}
		const n = 100
		var counts [n]int32
		h.forEachCell(n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachCellZeroAndSmall(t *testing.T) {
	h := Harness{Parallelism: 16}
	ran := false
	h.forEachCell(0, func(int) { ran = true })
	if ran {
		t.Fatal("forEachCell(0) invoked a task")
	}
	var one int32
	h.forEachCell(1, func(i int) { atomic.AddInt32(&one, 1) })
	if one != 1 {
		t.Fatalf("forEachCell(1) ran %d tasks", one)
	}
}

// TestForEachCellMoreWorkersThanTasks pins the workers-clamped-to-n edge:
// a pool wider than the task list must still run every index exactly once,
// and never more tasks concurrently than there are tasks.
func TestForEachCellMoreWorkersThanTasks(t *testing.T) {
	const n = 3
	h := Harness{Parallelism: 32}
	var counts [n]int32
	var inFlight, maxInFlight int32
	h.forEachCell(n, func(i int) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			max := atomic.LoadInt32(&maxInFlight)
			if cur <= max || atomic.CompareAndSwapInt32(&maxInFlight, max, cur) {
				break
			}
		}
		atomic.AddInt32(&counts[i], 1)
		atomic.AddInt32(&inFlight, -1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if got := atomic.LoadInt32(&maxInFlight); got > n {
		t.Fatalf("observed %d concurrent tasks for %d cells; workers not clamped", got, n)
	}
}

// TestForEachCellSequentialOrder pins the Parallelism == 1 degenerate
// case: tasks run on the caller's goroutine in exact index order, which
// is what makes a one-worker run the reference for the determinism gates.
func TestForEachCellSequentialOrder(t *testing.T) {
	h := Harness{Parallelism: 1}
	var order []int
	h.forEachCell(10, func(i int) { order = append(order, i) }) // no atomics: must be single-goroutine
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("one-worker order = %v, want %v", order, want)
	}
}

func TestHarnessWorkersDefaultAndOverride(t *testing.T) {
	if got := (Harness{Parallelism: 3}).Workers(); got != 3 {
		t.Fatalf("Workers = %d, want 3", got)
	}
	if got := (Harness{}).Workers(); got < 1 {
		t.Fatalf("default Workers = %d, want >= 1", got)
	}
	if got := (Harness{Parallelism: -5}).Workers(); got < 1 {
		t.Fatalf("Workers with negative parallelism = %d, want default >= 1", got)
	}
}

func TestHarnessConfigsDefaultAndOverride(t *testing.T) {
	if got := (Harness{}).configs(); !reflect.DeepEqual(got, AllConfigs()) {
		t.Fatalf("default configs = %v, want AllConfigs", got)
	}
	want := []ConfigID{NEVENested}
	if got := (Harness{Configs: want}).configs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("configs = %v, want %v", got, want)
	}
}
