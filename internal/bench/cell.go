package bench

import (
	"errors"
	"fmt"

	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/workload"
)

// CellFault is the flattened, serializable form of a *fault.SimError
// attached to a sweep result row: a cell that livelocked (trap storm,
// step-budget overrun) or panicked reports WHAT died and WHERE instead of
// hanging the sweep or zeroing silently. Every field is deterministic
// for a deterministic failure, so fleet workers and the in-process
// harness produce identical rows for the same faulting cell.
type CellFault struct {
	// Kind is the fault.ErrorKind string ("trap-storm", "step-budget",
	// "panic"), or "error" for a non-SimError failure.
	Kind string `json:"kind"`
	// Msg is the one-line cause.
	Msg string `json:"msg"`
	// CPU, Level, Cycle locate the failure in the simulation.
	CPU   int    `json:"cpu"`
	Level int    `json:"level"`
	Cycle uint64 `json:"cycle"`
	// Traps and Steps are the watchdog counters at the abort.
	Traps uint64 `json:"traps"`
	Steps uint64 `json:"steps"`
}

// String renders the compact row form.
func (f *CellFault) String() string {
	return fmt.Sprintf("%s: %s (cpu%d level %d cycle %d; %d traps, %d steps)",
		f.Kind, f.Msg, f.CPU, f.Level, f.Cycle, f.Traps, f.Steps)
}

// faultFrom flattens a protected-run error into a CellFault.
func faultFrom(err error) *CellFault {
	var se *fault.SimError
	if !errors.As(err, &se) {
		return &CellFault{Kind: "error", Msg: err.Error()}
	}
	return &CellFault{
		Kind:  se.Kind.String(),
		Msg:   se.Msg,
		CPU:   se.CPU,
		Level: se.Level,
		Cycle: se.Cycle,
		Traps: se.Traps,
		Steps: se.Steps,
	}
}

// CellRunner runs individual sweep cells on demand, sharing one
// warm-boot cache (and, through it, the harness's durable checkpoint
// store) across calls. It is the unit the fleet worker wraps: the
// orchestrator shards cells to workers, each worker runs them through a
// CellRunner, and because a cell's simulated result (every row field but
// the JIT counters; see MicroResult.Sim) is independent of every other
// cell, the merged sweep is byte-identical to an in-process Harness run
// regardless of sharding or interleaving. The JIT counters are host-side:
// a pooled platform keeps its compiled super-ops across cells, so they
// depend on which cells it ran before.
//
// A CellRunner is safe for concurrent use; the in-process harness fans
// cells out over one runner.
type CellRunner struct {
	h     Harness
	cache *warmCache
}

// NewCellRunner returns a runner for the harness's configuration.
func (h Harness) NewCellRunner() *CellRunner {
	return &CellRunner{h: h, cache: h.newCache()}
}

// Micro runs one microbenchmark cell.
func (r *CellRunner) Micro(cfg ConfigID, op MicroOp) MicroResult {
	cyc, traps, js, cf := r.h.runMicroWarm(r.cache, cfg, op)
	return MicroResult{Op: op, Config: cfg, Cycles: cyc, Traps: traps, JIT: js, Fault: cf}
}

// App runs one application-benchmark cell. The workload name must be a
// registered profile.
func (r *CellRunner) App(cfg ConfigID, name string) (AppResult, error) {
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return AppResult{}, fmt.Errorf("bench: unknown workload %q", name)
	}
	ov, raw, js, cf := r.h.runAppWarm(r.cache, cfg, prof)
	return AppResult{Workload: name, Config: cfg, Overhead: ov, Raw: raw, JIT: js, Fault: cf}, nil
}

// StoreStats returns the durable checkpoint store's counters (zero when
// no store is attached).
func (r *CellRunner) StoreStats() platform.StoreStats {
	return r.h.Store.Stats()
}
