package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/trace"
)

// Machine-readable performance report: `nevesim bench [-json]` times the
// full experiment suite and emits throughput numbers (wall time per
// table/figure, cells/sec, simulated cycles/sec) so the simulator's own
// performance trajectory is tracked across PRs, not just the paper's
// numbers.

// SuiteStats is one timed artifact regeneration.
type SuiteStats struct {
	// Name is the artifact ("micro" covers Tables 1/6/7; "fig2" Figure 2).
	Name string `json:"name"`
	// WallMS is the wall-clock time of the run in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Cells is the number of (configuration x benchmark) cells measured.
	Cells int `json:"cells"`
	// CellsPerSec is the cell throughput.
	CellsPerSec float64 `json:"cells_per_sec"`
	// SimCycles is the total number of simulated guest cycles produced.
	SimCycles uint64 `json:"sim_cycles"`
	// SimCyclesPerSec is the simulation speed in simulated cycles per
	// wall-clock second.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	// JITHits/JITMisses/JITBailouts are the trace-JIT dispatch counters
	// summed over the suite's cells (all zero with jit=off).
	JITHits     uint64 `json:"jit_hits"`
	JITMisses   uint64 `json:"jit_misses"`
	JITBailouts uint64 `json:"jit_bailouts"`
	// Faulted counts cells that produced a CellFault row (livelock or
	// panic) instead of a measurement.
	Faulted int `json:"faulted,omitempty"`
}

// Report is the full performance report.
type Report struct {
	// Date is the run date (YYYY-MM-DD).
	Date string `json:"date"`
	// Parallelism is the worker count the suites ran with.
	Parallelism int `json:"parallelism"`
	// ColdBoot marks a run with the warm-boot checkpoint cache disabled
	// (every cell booted its stack from scratch).
	ColdBoot bool `json:"coldboot,omitempty"`
	// JITOff marks a run with the trace-JIT layer disabled (the
	// interpreted baseline the jit-on wall times are compared against).
	JITOff bool `json:"jit_off,omitempty"`
	// SMP marks a report of the SMP scale-out sweep: suites are the
	// sweep's cells (named smp-<profile>-<vcpus>), timed by their
	// parallel runs, and SMPCells carries the per-cell detail.
	SMP bool `json:"smp,omitempty"`
	// SMPAdaptive marks a sweep run with adaptive epoch budgets; it gets
	// its own filename so fixed-budget and adaptive reports of the same
	// day coexist.
	SMPAdaptive bool         `json:"smp_adaptive,omitempty"`
	SMPCells    []SMPCell    `json:"smp_cells,omitempty"`
	Suites      []SuiteStats `json:"suites"`
	// Store holds the durable checkpoint store's counters when one was
	// attached: hits and misses, plus detected-and-recovered corruption.
	Store *platform.StoreStats `json:"store,omitempty"`
	// TotalWallMS is the wall time of the whole report run.
	TotalWallMS float64 `json:"total_wall_ms"`
}

// RunBenchReport times the microbenchmark suite and Figure 2 under the
// harness's parallelism.
func (h Harness) RunBenchReport() Report {
	r := Report{
		Date:        time.Now().Format("2006-01-02"),
		Parallelism: h.Workers(),
		ColdBoot:    h.ColdBoot,
		JITOff:      h.JITOff,
	}
	start := time.Now()
	runner := h.NewCellRunner()

	t0 := time.Now()
	micro := runner.RunAllMicro()
	var microCycles uint64
	var microJIT trace.JITStats
	microFaults := 0
	for _, c := range micro {
		microCycles += c.Cycles
		microJIT = microJIT.Add(c.JIT)
		if c.Fault != nil {
			microFaults++
		}
	}
	ms := suiteStats("micro", time.Since(t0), len(micro), microCycles, microJIT)
	ms.Faulted = microFaults
	r.Suites = append(r.Suites, ms)

	t0 = time.Now()
	apps := runner.RunFigure2()
	var appCycles uint64
	var appJIT trace.JITStats
	appFaults := 0
	for _, c := range apps {
		appCycles += c.Raw.Cycles
		appJIT = appJIT.Add(c.JIT)
		if c.Fault != nil {
			appFaults++
		}
	}
	as := suiteStats("fig2", time.Since(t0), len(apps), appCycles, appJIT)
	as.Faulted = appFaults
	r.Suites = append(r.Suites, as)

	if h.Store != nil {
		stats := h.Store.Stats()
		r.Store = &stats
	}
	r.TotalWallMS = float64(time.Since(start).Microseconds()) / 1000
	return r
}

// RunBenchReport times the suites with the default harness.
func RunBenchReport() Report { return Harness{}.RunBenchReport() }

// RunSMPReportOpts times the SMP scale-out sweep of the named registry
// configs under the given engine options: one suite entry per cell, with
// the parallel run's wall time as the tracked number (a vCPU-scaling
// regression in the engine shows up here and fails benchdiff's smp
// threshold).
func (h Harness) RunSMPReportOpts(names []string, opts SMPSweepOptions) Report {
	r := Report{
		Date:        time.Now().Format("2006-01-02"),
		Parallelism: h.Workers(),
		SMP:         true,
		SMPAdaptive: opts.Adaptive,
	}
	start := time.Now()
	r.SMPCells = h.RunSMPSweepOpts(names, opts)
	for _, c := range r.SMPCells {
		name := fmt.Sprintf("smp-%s-%d", c.Profile, c.VCPUs)
		wall := time.Duration(c.ParWallMS * float64(time.Millisecond))
		// SMP runs are interpreted, so their JIT counters are zero.
		r.Suites = append(r.Suites, suiteStats(name, wall, c.VCPUs, c.VClock, trace.JITStats{}))
	}
	r.TotalWallMS = float64(time.Since(start).Microseconds()) / 1000
	return r
}

// FormatSMPReport renders the sweep as human-readable text.
func FormatSMPReport(r Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SMP scale-out report (%s)\n", r.Date)
	fmt.Fprintf(&b, "%-8s %-12s %6s %8s %10s %10s %9s %8s %8s %10s %9s %9s %6s\n",
		"config", "profile", "vcpus", "budget", "seq ms", "par ms", "speedup",
		"epochs", "distops", "contention", "barr ms", "merge ms", "ident")
	for _, c := range r.SMPCells {
		budget := fmt.Sprintf("%d", c.FinalBudget)
		if c.Adaptive {
			budget = "a:" + budget
		}
		fmt.Fprintf(&b, "%-8s %-12s %6d %8s %10.2f %10.2f %8.2fx %8d %8d %10d %9.2f %9.2f %6v\n",
			c.Config, c.Profile, c.VCPUs, budget, c.SeqWallMS, c.ParWallMS, c.SpeedupX,
			c.Epochs, c.DistOps, c.Contention, c.BarrierWaitMS, c.MergeMS, c.Identical)
	}
	fmt.Fprintf(&b, "total    %10.1f ms\n", r.TotalWallMS)
	return b.String()
}

func suiteStats(name string, wall time.Duration, cells int, simCycles uint64, js trace.JITStats) SuiteStats {
	st := SuiteStats{
		Name:        name,
		WallMS:      float64(wall.Microseconds()) / 1000,
		Cells:       cells,
		SimCycles:   simCycles,
		JITHits:     js.Hits,
		JITMisses:   js.Misses,
		JITBailouts: js.Bailouts,
	}
	// A clock too coarse to see the run (wall_ms == 0 — possible for a
	// fully warm suite on a coarse-tick platform) yields zero rates, not
	// +Inf/NaN garbage in the JSON.
	if secs := wall.Seconds(); secs > 0 {
		st.CellsPerSec = float64(cells) / secs
		st.SimCyclesPerSec = float64(simCycles) / secs
	}
	return st
}

// JSON renders the report as indented JSON.
func (r Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // the report contains no unmarshalable values
	}
	return append(b, '\n')
}

// Filename returns the conventional BENCH_<date>.json name for the
// report; cold-boot and jit-off baselines get a suffix so a default
// report of the same day never overwrites them.
func (r Report) Filename() string {
	name := "BENCH_" + r.Date
	if r.ColdBoot {
		name += "-coldboot"
	}
	if r.JITOff {
		name += "-jitoff"
	}
	if r.SMP {
		name += "-smp"
	}
	if r.SMPAdaptive {
		name += "-adaptive"
	}
	return name + ".json"
}

// FormatReport renders the report as human-readable text.
func FormatReport(r Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulator performance report (%s, %d workers)\n", r.Date, r.Parallelism)
	fmt.Fprintf(&b, "%-8s %10s %7s %12s %14s %16s %24s\n",
		"suite", "wall ms", "cells", "cells/sec", "sim cycles", "sim cyc/sec", "jit hit/miss/bail")
	for _, s := range r.Suites {
		fmt.Fprintf(&b, "%-8s %10.1f %7d %12.1f %14d %16.0f %24s\n",
			s.Name, s.WallMS, s.Cells, s.CellsPerSec, s.SimCycles, s.SimCyclesPerSec,
			fmt.Sprintf("%d/%d/%d", s.JITHits, s.JITMisses, s.JITBailouts))
	}
	fmt.Fprintf(&b, "total    %10.1f ms\n", r.TotalWallMS)
	return b.String()
}
