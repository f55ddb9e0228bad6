package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/nevesim/neve/internal/bench"
)

func report(suites []bench.SuiteStats, cells []bench.SMPCell) bench.Report {
	return bench.Report{Date: "2026-08-08", Parallelism: 4, Suites: suites, SMPCells: cells, TotalWallMS: 100}
}

// TestOneSidedSuites: suites present in only one report are listed as
// added/removed and never regress.
func TestOneSidedSuites(t *testing.T) {
	oldR := report([]bench.SuiteStats{
		{Name: "micro", WallMS: 100},
		{Name: "retired", WallMS: 50},
	}, nil)
	newR := report([]bench.SuiteStats{
		{Name: "micro", WallMS: 105},
		{Name: "fresh", WallMS: 70},
	}, nil)
	var out bytes.Buffer
	if diffReports(&out, oldR, newR, 10, 25) {
		t.Fatalf("one-sided suites failed the diff:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "fresh") || !strings.Contains(s, "(new suite)") {
		t.Errorf("new suite not listed:\n%s", s)
	}
	if !strings.Contains(s, "retired") || !strings.Contains(s, "(suite removed)") {
		t.Errorf("removed suite not listed:\n%s", s)
	}
}

// TestRegressionStillFails: the lifecycle handling must not swallow a
// real wall-time regression in a shared suite.
func TestRegressionStillFails(t *testing.T) {
	oldR := report([]bench.SuiteStats{{Name: "micro", WallMS: 100}}, nil)
	newR := report([]bench.SuiteStats{{Name: "micro", WallMS: 150}}, nil)
	var out bytes.Buffer
	if !diffReports(&out, oldR, newR, 10, 25) {
		t.Fatalf("50%% slowdown passed a 10%% threshold:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regression not marked:\n%s", out.String())
	}
}

// TestOneSidedSMPSection: an SMP section present in only one report
// (sweep just added, or just retired) lists every cell instead of
// being skipped, and never fails the diff.
func TestOneSidedSMPSection(t *testing.T) {
	cells := []bench.SMPCell{
		{Config: "smp4", Profile: "kernbench", SpeedupX: 2.5},
		{Config: "smp8", Profile: "hackbench", SpeedupX: 3.1},
	}

	// Section only in the NEW report.
	var out bytes.Buffer
	if diffReports(&out, report(nil, nil), report(nil, cells), 10, 25) {
		t.Fatalf("new-only SMP section failed the diff:\n%s", out.String())
	}
	if c := strings.Count(out.String(), "(new cell)"); c != 2 {
		t.Errorf("want 2 new-cell rows, got %d:\n%s", c, out.String())
	}

	// Section only in the OLD report.
	out.Reset()
	if diffReports(&out, report(nil, cells), report(nil, nil), 10, 25) {
		t.Fatalf("old-only SMP section failed the diff:\n%s", out.String())
	}
	if c := strings.Count(out.String(), "(cell removed)"); c != 2 {
		t.Errorf("want 2 cell-removed rows, got %d:\n%s", c, out.String())
	}
}

// TestSMPCellMix: shared cells are judged on speedup while one-sided
// cells in the same section are listed.
func TestSMPCellMix(t *testing.T) {
	oldCells := []bench.SMPCell{
		{Config: "smp4", Profile: "kernbench", SpeedupX: 3.0},
		{Config: "smp4", Profile: "retired", SpeedupX: 2.0},
	}
	newCells := []bench.SMPCell{
		{Config: "smp4", Profile: "kernbench", SpeedupX: 1.0}, // 67% drop
		{Config: "smp4", Profile: "fresh", SpeedupX: 2.2},
	}
	var out bytes.Buffer
	if !diffReports(&out, report(nil, oldCells), report(nil, newCells), 10, 25) {
		t.Fatalf("67%% speedup drop passed a 25%% threshold:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "REGRESSION") {
		t.Errorf("speedup regression not marked:\n%s", s)
	}
	if !strings.Contains(s, "(new cell)") || !strings.Contains(s, "(cell removed)") {
		t.Errorf("one-sided cells not listed:\n%s", s)
	}
}
