package fleet

import (
	"bytes"
	"fmt"
	"reflect"

	"github.com/nevesim/neve/internal/bench"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/workload"
)

// The desired state of a sweep is its cell grid: every microbenchmark
// and every application workload on every configuration, in the same
// order the in-process Harness emits them. The orchestrator reconciles
// observed results against this grid; merging is therefore just
// writing each result into its pre-indexed slot.

// grid returns the sweep's cells: micro cells in RunAllMicro order
// followed by app cells in RunFigure2 order.
func grid(cfgs []bench.ConfigID) []Cell {
	var cells []Cell
	for _, op := range bench.MicroOps() {
		for _, cfg := range cfgs {
			cells = append(cells, Cell{Kind: "micro", Config: cfg, Op: op})
		}
	}
	for _, p := range workload.Profiles() {
		for _, cfg := range cfgs {
			cells = append(cells, Cell{Kind: "app", Config: cfg, Workload: p.Name})
		}
	}
	return cells
}

// DegradedCell records a cell the fleet gave up on: every attempt died
// with a worker (never a deterministic cell fault — those are results)
// and the retry budget ran out. The sweep completes anyway; the cell's
// result row carries a "degraded" fault.
type DegradedCell struct {
	Cell     Cell   `json:"cell"`
	Attempts int    `json:"attempts"`
	LastErr  string `json:"last_err"`
}

// Stats are the host-side observability counters of one fleet run —
// everything here is about the run, not the simulation, so none of it
// participates in the byte-equivalence gate against the in-process
// harness.
type Stats struct {
	// Workers is the configured worker-slot count.
	Workers int `json:"workers"`
	// Cells is the grid size.
	Cells int `json:"cells"`
	// Retries counts cell attempts lost to worker deaths and re-queued.
	Retries int `json:"retries,omitempty"`
	// Respawns counts worker processes started beyond the initial pool.
	Respawns int `json:"respawns,omitempty"`
	// Degraded counts cells the retry budget gave up on.
	Degraded int `json:"degraded,omitempty"`
	// Store merges the checkpoint-store counters reported by workers at
	// shutdown (a crashed worker's counters are lost — best effort).
	Store platform.StoreStats `json:"store"`
	// WallMS is the wall-clock time of the whole sweep.
	WallMS float64 `json:"wall_ms"`
}

// SweepResult is one converged fleet sweep: the merged result rows
// (identical to a single-process Harness run) plus the host-side
// reconciliation record.
type SweepResult struct {
	Micro    []bench.MicroResult `json:"micro"`
	Apps     []bench.AppResult   `json:"apps"`
	Degraded []DegradedCell      `json:"degraded,omitempty"`
	Stats    Stats               `json:"stats"`
}

// Tables renders the merged sweep as the paper artifacts (Tables 1, 6,
// 7 and Figure 2) — the byte stream the equivalence gate compares
// against the in-process harness.
func (s *SweepResult) Tables() string {
	var b bytes.Buffer
	b.WriteString(bench.FormatTable1(s.Micro))
	b.WriteString("\n")
	b.WriteString(bench.FormatTable6(s.Micro))
	b.WriteString("\n")
	b.WriteString(bench.FormatTable7(s.Micro))
	b.WriteString("\n")
	b.WriteString(bench.FormatFigure2(s.Apps))
	return b.String()
}

// Check verifies the sweep against a fresh in-process run of the
// reference harness: every result row must be deeply equal and the
// formatted artifacts byte-identical. Host-side fields (Stats,
// Degraded, and each row's JIT counters, which depend on the cells a
// worker's pooled platform ran before) are outside the comparison. A sweep with
// degraded cells cannot pass — degradation means observations are
// missing, and Check says so rather than comparing garbage.
func (s *SweepResult) Check(h bench.Harness) error {
	if len(s.Degraded) > 0 {
		return fmt.Errorf("fleet: %d degraded cells (first: %s after %d attempts: %s)",
			len(s.Degraded), s.Degraded[0].Cell, s.Degraded[0].Attempts, s.Degraded[0].LastErr)
	}
	micro := h.RunAllMicro()
	apps := h.RunFigure2()
	if len(micro) != len(s.Micro) || len(apps) != len(s.Apps) {
		return fmt.Errorf("fleet: grid shape mismatch: fleet %d+%d rows, harness %d+%d",
			len(s.Micro), len(s.Apps), len(micro), len(apps))
	}
	for i := range micro {
		if !reflect.DeepEqual(micro[i].Sim(), s.Micro[i].Sim()) {
			return fmt.Errorf("fleet: micro row %d (%v/%v) diverges:\n fleet   %+v\n harness %+v",
				i, s.Micro[i].Op, s.Micro[i].Config, s.Micro[i], micro[i])
		}
	}
	for i := range apps {
		if !reflect.DeepEqual(apps[i].Sim(), s.Apps[i].Sim()) {
			return fmt.Errorf("fleet: app row %d (%s/%v) diverges:\n fleet   %+v\n harness %+v",
				i, s.Apps[i].Workload, s.Apps[i].Config, s.Apps[i], apps[i])
		}
	}
	ref := (&SweepResult{Micro: micro, Apps: apps}).Tables()
	if got := s.Tables(); got != ref {
		return fmt.Errorf("fleet: merged tables differ from in-process harness")
	}
	return nil
}

// FormatStats renders the reconciliation record as human-readable text.
func FormatStats(st Stats) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fleet: %d cells over %d workers in %.1f ms", st.Cells, st.Workers, st.WallMS)
	if st.Retries > 0 || st.Respawns > 0 {
		fmt.Fprintf(&b, "; %d retries, %d respawns", st.Retries, st.Respawns)
	}
	if st.Degraded > 0 {
		fmt.Fprintf(&b, "; %d DEGRADED", st.Degraded)
	}
	fmt.Fprintf(&b, "\nstore: %d hits, %d misses, %d saves", st.Store.Hits, st.Store.Misses, st.Store.Saves)
	if st.Store.Corrupt > 0 {
		fmt.Fprintf(&b, ", %d corrupt entries recovered", st.Store.Corrupt)
	}
	b.WriteString("\n")
	return b.String()
}
