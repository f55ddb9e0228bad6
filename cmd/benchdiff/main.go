// Command benchdiff compares two BENCH_<date>.json performance reports
// (written by `nevesim bench -json`) and fails on wall-time regressions:
//
//	benchdiff [-threshold pct] [-smp-threshold pct] OLD.json NEW.json
//
// For every suite present in both reports it prints old/new wall time and
// the relative change, and exits non-zero if any suite slowed down by
// more than -threshold percent (default 10). Suites named smp-* (the SMP
// scale-out sweep, written by `nevesim smp -json`) are judged on the
// sweep's parallel speedup instead — speedup_x is higher-is-better, and a
// cell regresses when its speedup drops by more than -smp-threshold
// percent (default 25: a parallel cell's scheduling rides on host core
// availability, so it is noisier than the deterministic single-vCPU
// suites); their wall times are printed informationally. Suites or SMP
// cells that appear in only one report — including a whole SMP section
// present on one side only — are listed as added/removed rows but never
// fail the diff, so adding or retiring a suite doesn't break CI.
// Throughput-only differences (cells/sec on a zero-wall suite,
// parallelism changes) are informational.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/nevesim/neve/internal/bench"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] [-smp-threshold pct] OLD.json NEW.json")
	os.Exit(2)
}

func load(path string) bench.Report {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	var r bench.Report
	if err := json.Unmarshal(b, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
		os.Exit(1)
	}
	return r
}

func bootMode(r bench.Report) string {
	if r.ColdBoot {
		return "cold-boot"
	}
	return "warm-boot"
}

func main() {
	threshold := flag.Float64("threshold", 10, "max tolerated per-suite wall-time regression, percent")
	smpThreshold := flag.Float64("smp-threshold", 25, "regression threshold for smp-* suites (parallel wall times are noisier)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 2 {
		usage()
	}
	oldR, newR := load(flag.Arg(0)), load(flag.Arg(1))

	fmt.Printf("old: %s (%s, %d workers, %s)\n", flag.Arg(0), oldR.Date, oldR.Parallelism, bootMode(oldR))
	fmt.Printf("new: %s (%s, %d workers, %s)\n", flag.Arg(1), newR.Date, newR.Parallelism, bootMode(newR))
	if oldR.ColdBoot != newR.ColdBoot {
		fmt.Println("note: boot modes differ; the delta includes the checkpoint cache itself")
	}

	if diffReports(os.Stdout, oldR, newR, *threshold, *smpThreshold) {
		fmt.Fprintf(os.Stderr, "benchdiff: regression above %.0f%% wall time (%.0f%% speedup drop for smp cells)\n", *threshold, *smpThreshold)
		os.Exit(1)
	}
}

// diffReports prints the suite and SMP-cell comparison to w and reports
// whether any regression crossed a threshold. Entries present in only
// one report are printed as added/removed rows and never regress — a
// suite's lifecycle is not a performance event.
func diffReports(w io.Writer, oldR, newR bench.Report, threshold, smpThreshold float64) bool {
	oldSuites := make(map[string]bench.SuiteStats, len(oldR.Suites))
	for _, s := range oldR.Suites {
		oldSuites[s.Name] = s
	}

	fmt.Fprintf(w, "%-8s %12s %12s %9s\n", "suite", "old wall ms", "new wall ms", "delta")
	failed := false
	for _, n := range newR.Suites {
		o, ok := oldSuites[n.Name]
		if !ok {
			fmt.Fprintf(w, "%-8s %12s %12.1f %9s  (new suite)\n", n.Name, "-", n.WallMS, "-")
			continue
		}
		delete(oldSuites, n.Name)
		mark := ""
		var pct float64
		if strings.HasPrefix(n.Name, "smp-") {
			// smp-* suites are judged on speedup_x below, not wall time.
			if o.WallMS > 0 {
				pct = (n.WallMS - o.WallMS) / o.WallMS * 100
			}
			fmt.Fprintf(w, "%-8s %12.1f %12.1f %+8.1f%%  (info; judged on speedup)\n", n.Name, o.WallMS, n.WallMS, pct)
			continue
		}
		if o.WallMS > 0 {
			pct = (n.WallMS - o.WallMS) / o.WallMS * 100
			if pct > threshold {
				mark = "  REGRESSION"
				failed = true
			}
		} else if n.WallMS > 0 {
			// Old wall time rounded to zero: any measurable new time is an
			// unquantifiable slowdown, so only report it.
			mark = "  (old wall time was 0)"
		}
		fmt.Fprintf(w, "%-8s %12.1f %12.1f %+8.1f%%%s\n", n.Name, o.WallMS, n.WallMS, pct, mark)
	}
	// Suites left in the map appear only in the old report.
	for _, s := range oldR.Suites {
		if o, ok := oldSuites[s.Name]; ok {
			fmt.Fprintf(w, "%-8s %12.1f %12s %9s  (suite removed)\n", o.Name, o.WallMS, "-", "-")
		}
	}
	if oldR.TotalWallMS > 0 {
		fmt.Fprintf(w, "total    %12.1f %12.1f %+8.1f%%\n",
			oldR.TotalWallMS, newR.TotalWallMS,
			(newR.TotalWallMS-oldR.TotalWallMS)/oldR.TotalWallMS*100)
	}

	// SMP cells: parallel speedup is the tracked number, higher is better.
	// A cell regresses when its speedup drops by more than smpThreshold
	// percent of the old value. A section present on one side only (the
	// sweep was just added, or just retired) lists every cell as
	// added/removed instead of being skipped silently.
	if len(oldR.SMPCells) > 0 || len(newR.SMPCells) > 0 {
		type cellKey struct{ config, profile string }
		oldCells := make(map[cellKey]bench.SMPCell, len(oldR.SMPCells))
		for _, c := range oldR.SMPCells {
			oldCells[cellKey{c.Config, c.Profile}] = c
		}
		fmt.Fprintf(w, "\n%-8s %-12s %11s %11s %9s\n", "config", "profile", "old speedup", "new speedup", "delta")
		for _, n := range newR.SMPCells {
			o, ok := oldCells[cellKey{n.Config, n.Profile}]
			if !ok {
				fmt.Fprintf(w, "%-8s %-12s %11s %10.2fx %9s  (new cell)\n", n.Config, n.Profile, "-", n.SpeedupX, "-")
				continue
			}
			delete(oldCells, cellKey{n.Config, n.Profile})
			mark := ""
			var drop float64
			if o.SpeedupX > 0 {
				drop = (o.SpeedupX - n.SpeedupX) / o.SpeedupX * 100
				if drop > smpThreshold {
					mark = "  REGRESSION"
					failed = true
				}
			}
			fmt.Fprintf(w, "%-8s %-12s %10.2fx %10.2fx %+8.1f%%%s\n",
				n.Config, n.Profile, o.SpeedupX, n.SpeedupX, -drop, mark)
		}
		// Cells left in the map appear only in the old report.
		for _, c := range oldR.SMPCells {
			if o, ok := oldCells[cellKey{c.Config, c.Profile}]; ok {
				fmt.Fprintf(w, "%-8s %-12s %10.2fx %11s %9s  (cell removed)\n", o.Config, o.Profile, o.SpeedupX, "-", "-")
			}
		}
	}
	return failed
}
