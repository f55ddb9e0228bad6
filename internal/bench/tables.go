package bench

import (
	"fmt"
	"strings"

	"github.com/nevesim/neve/internal/trace"
	"github.com/nevesim/neve/internal/workload"
)

// This file regenerates the paper's evaluation artifacts as formatted text:
// Table 1 (ARMv8.3 vs x86 microbenchmark cycle counts), Table 6 (with
// NEVE), Table 7 (trap counts), and Figure 2 (application benchmark
// overhead), plus the paper-reported values for side-by-side comparison.

// PaperMicroCycles are Tables 1/6 as published (0 = not reported).
var PaperMicroCycles = map[MicroOp]map[ConfigID]uint64{
	Hypercall:  {ARMVM: 2729, ARMNested: 422720, ARMNestedVHE: 307363, NEVENested: 92385, NEVENestedVHE: 100895, X86VM: 1188, X86Nested: 36345},
	DeviceIO:   {ARMVM: 3534, ARMNested: 436924, ARMNestedVHE: 312148, NEVENested: 96002, NEVENestedVHE: 105071, X86VM: 2307, X86Nested: 39108},
	VirtualIPI: {ARMVM: 8364, ARMNested: 611686, ARMNestedVHE: 494765, NEVENested: 184657, NEVENestedVHE: 213256, X86VM: 2751, X86Nested: 45360},
	VirtualEOI: {ARMVM: 71, ARMNested: 71, ARMNestedVHE: 71, NEVENested: 71, NEVENestedVHE: 71, X86VM: 316, X86Nested: 316},
}

// PaperMicroTraps is Table 7 as published.
var PaperMicroTraps = map[MicroOp]map[ConfigID]uint64{
	Hypercall:  {ARMNested: 126, ARMNestedVHE: 82, NEVENested: 15, NEVENestedVHE: 15, X86Nested: 5},
	DeviceIO:   {ARMNested: 128, ARMNestedVHE: 82, NEVENested: 15, NEVENestedVHE: 15, X86Nested: 5},
	VirtualIPI: {ARMNested: 261, ARMNestedVHE: 172, NEVENested: 37, NEVENestedVHE: 38, X86Nested: 9},
	VirtualEOI: {ARMNested: 0, ARMNestedVHE: 0, NEVENested: 0, NEVENestedVHE: 0, X86Nested: 0},
}

// MicroResult is one measured microbenchmark cell.
type MicroResult struct {
	Op     MicroOp
	Config ConfigID
	Cycles uint64
	Traps  uint64
	// JIT holds the cell's trace-JIT dispatch counters (zero with jit=off
	// or on x86). Simulator-side diagnostics only — never printed in the
	// paper tables, which are byte-identical with and without the engine.
	JIT trace.JITStats
	// Fault is non-nil when the cell livelocked or panicked: the
	// measurements are zero and this row explains why. The rest of the
	// sweep is unaffected.
	Fault *CellFault `json:",omitempty"`
}

// Sim returns the row without its host-side JIT counters: the fields the
// cell's simulation alone determines. The counters depend on which cells
// a pooled platform ran before (compiled super-ops outlive restores), so
// rows from different schedules compare equal only through Sim.
func (r MicroResult) Sim() MicroResult {
	r.JIT = trace.JITStats{}
	return r
}

// RunAllMicro measures every microbenchmark on the harness's
// configuration sweep. Cells run across the worker pool; the result order
// is the sequential table order regardless of worker count.
func (h Harness) RunAllMicro() []MicroResult {
	return h.NewCellRunner().RunAllMicro()
}

// RunAllMicro measures every microbenchmark on the runner's harness
// sweep, through the runner's shared cache.
func (r *CellRunner) RunAllMicro() []MicroResult {
	ops, cfgs := MicroOps(), r.h.configs()
	out := make([]MicroResult, len(ops)*len(cfgs))
	r.h.forEachCell(len(out), func(i int) {
		op, cfg := ops[i/len(cfgs)], cfgs[i%len(cfgs)]
		out[i] = r.Micro(cfg, op)
	})
	return out
}

// RunAllMicro measures every microbenchmark on every configuration with
// the default harness.
func RunAllMicro() []MicroResult { return Harness{}.RunAllMicro() }

func cell(results []MicroResult, op MicroOp, cfg ConfigID) *MicroResult {
	for i := range results {
		r := &results[i]
		if r.Op == op && r.Config == cfg {
			return r
		}
	}
	return nil
}

// FormatTable1 renders Table 1: microbenchmark cycle counts for ARMv8.3
// and x86, measured vs paper.
func FormatTable1(results []MicroResult) string {
	cfgs := []ConfigID{ARMVM, ARMNested, ARMNestedVHE, X86VM, X86Nested}
	return formatCycleTable("Table 1: Microbenchmark Cycle Counts (ARMv8.3 vs x86)", results, cfgs)
}

// FormatTable6 renders Table 6: microbenchmark cycle counts with NEVE.
func FormatTable6(results []MicroResult) string {
	cfgs := []ConfigID{ARMNested, ARMNestedVHE, NEVENested, NEVENestedVHE, X86Nested}
	s := formatCycleTable("Table 6: Microbenchmark Cycle Counts (with NEVE)", results, cfgs)
	var b strings.Builder
	b.WriteString(s)
	// Relative overhead vs the platform's non-nested VM, as the paper
	// prints in parentheses.
	vmBase := map[ConfigID]ConfigID{
		ARMNested: ARMVM, ARMNestedVHE: ARMVM,
		NEVENested: ARMVM, NEVENestedVHE: ARMVM,
		X86Nested: X86VM,
	}
	b.WriteString("\nRelative slowdown vs non-nested VM:\n")
	for _, op := range []MicroOp{Hypercall, DeviceIO, VirtualIPI} {
		fmt.Fprintf(&b, "  %-12s", op)
		for _, cfg := range cfgs {
			r := cell(results, op, cfg)
			base := cell(results, op, vmBase[cfg])
			if r == nil || base == nil || base.Cycles == 0 || r.Fault != nil {
				continue
			}
			fmt.Fprintf(&b, "  %s %.0fx", shortName(cfg), float64(r.Cycles)/float64(base.Cycles))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func formatCycleTable(title string, results []MicroResult, cfgs []ConfigID) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-14s", "Benchmark")
	for _, cfg := range cfgs {
		fmt.Fprintf(&b, " %22s", shortName(cfg))
	}
	b.WriteString("\n")
	for _, op := range MicroOps() {
		fmt.Fprintf(&b, "%-14s", op)
		for _, cfg := range cfgs {
			r := cell(results, op, cfg)
			if r == nil {
				continue
			}
			paper := PaperMicroCycles[op][cfg]
			meas := fmtN(r.Cycles)
			if r.Fault != nil {
				meas = "ERR:" + r.Fault.Kind
			}
			fmt.Fprintf(&b, " %10s/%-11s", meas, fmtN(paper)+"p")
		}
		b.WriteString("\n")
	}
	b.WriteString("(measured/paper; 'p' marks the published value)\n")
	return b.String()
}

// FormatTable7 renders Table 7: traps to the host hypervisor.
func FormatTable7(results []MicroResult) string {
	cfgs := []ConfigID{ARMNested, ARMNestedVHE, NEVENested, NEVENestedVHE, X86Nested}
	var b strings.Builder
	b.WriteString("Table 7: Microbenchmark Average Trap Counts\n")
	fmt.Fprintf(&b, "%-14s", "Benchmark")
	for _, cfg := range cfgs {
		fmt.Fprintf(&b, " %18s", shortName(cfg))
	}
	b.WriteString("\n")
	for _, op := range MicroOps() {
		fmt.Fprintf(&b, "%-14s", op)
		for _, cfg := range cfgs {
			r := cell(results, op, cfg)
			if r == nil {
				continue
			}
			meas := fmt.Sprintf("%d", r.Traps)
			if r.Fault != nil {
				meas = "ERR:" + r.Fault.Kind
			}
			fmt.Fprintf(&b, " %8s/%-9s", meas, fmt.Sprintf("%dp", PaperMicroTraps[op][cfg]))
		}
		b.WriteString("\n")
	}
	b.WriteString("(measured/paper)\n")
	return b.String()
}

// FormatTable8 renders Table 8: the application benchmark descriptions,
// with the event-mix parameters that model each workload.
func FormatTable8() string {
	var b strings.Builder
	b.WriteString("Table 8: Application Benchmarks" + "\n")
	for _, p := range workload.Profiles() {
		fmt.Fprintf(&b, "%-14s %s\n", p.Name, p.Description)
		fmt.Fprintf(&b, "%-14s   model: %d ops x %d insns; rates/op: hc %.2f rx %.2f tx %.2f ipi %.2f\n",
			"", p.Ops, p.OpWork, p.HypercallsPerOp, p.RXPerOp, p.TXPerOp, p.IPIPerOp)
	}
	return b.String()
}

// AppResult is one Figure 2 cell.
type AppResult struct {
	Workload string
	Config   ConfigID
	Overhead float64
	Raw      workload.Result
	// JIT holds the cell's trace-JIT dispatch counters (zero with jit=off
	// or on x86).
	JIT trace.JITStats
	// Fault is non-nil when the cell livelocked or panicked (see
	// MicroResult.Fault).
	Fault *CellFault `json:",omitempty"`
}

// Sim returns the row without its host-side JIT counters (see
// MicroResult.Sim).
func (r AppResult) Sim() AppResult {
	r.JIT = trace.JITStats{}
	return r
}

// RunFigure2 measures every application workload on the harness's
// configuration sweep. Cells run across the worker pool in deterministic
// sequential order.
func (h Harness) RunFigure2() []AppResult {
	return h.NewCellRunner().RunFigure2()
}

// RunFigure2 measures every application workload on the runner's harness
// sweep, through the runner's shared cache.
func (r *CellRunner) RunFigure2() []AppResult {
	profiles, cfgs := workload.Profiles(), r.h.configs()
	out := make([]AppResult, len(profiles)*len(cfgs))
	r.h.forEachCell(len(out), func(i int) {
		p, cfg := profiles[i/len(cfgs)], cfgs[i%len(cfgs)]
		res, err := r.App(cfg, p.Name)
		if err != nil {
			// Profiles() names are always registered; unreachable.
			panic(err)
		}
		out[i] = res
	})
	return out
}

// RunFigure2 measures every application workload on every configuration
// with the default harness.
func RunFigure2() []AppResult { return Harness{}.RunFigure2() }

// FormatFigure2 renders Figure 2 as a table of normalized overheads.
func FormatFigure2(results []AppResult) string {
	var b strings.Builder
	b.WriteString("Figure 2: Application Benchmark Performance (overhead normalized to native; lower is better)\n")
	fmt.Fprintf(&b, "%-14s", "Workload")
	for _, cfg := range AllConfigs() {
		fmt.Fprintf(&b, " %10s", shortName(cfg))
	}
	b.WriteString("\n")
	for _, p := range workload.Profiles() {
		fmt.Fprintf(&b, "%-14s", p.Name)
		for _, cfg := range AllConfigs() {
			for _, r := range results {
				if r.Workload == p.Name && r.Config == cfg {
					if r.Fault != nil {
						fmt.Fprintf(&b, " %10s", "ERR:"+r.Fault.Kind)
					} else {
						fmt.Fprintf(&b, " %9.2fx", r.Overhead)
					}
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func shortName(c ConfigID) string {
	switch c {
	case ARMVM:
		return "ARM-VM"
	case ARMNested:
		return "v8.3"
	case ARMNestedVHE:
		return "v8.3-VHE"
	case NEVENested:
		return "NEVE"
	case NEVENestedVHE:
		return "NEVE-VHE"
	case X86VM:
		return "x86-VM"
	case X86Nested:
		return "x86-nest"
	default:
		return "?"
	}
}

func fmtN(n uint64) string {
	if n < 1000 {
		return fmt.Sprintf("%d", n)
	}
	return fmtN(n/1000) + fmt.Sprintf(",%03d", n%1000)
}
