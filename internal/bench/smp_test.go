package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/workload"
)

// TestSMPEquivalenceAcrossRegistry is the CI equivalence gate: on every
// ARM registry configuration, a parallel SMP run must be byte-identical to
// a sequential one — per-CPU cycles, trap totals, engine statistics.
func TestSMPEquivalenceAcrossRegistry(t *testing.T) {
	prof, ok := workload.SMPProfileByName("ipi-ring")
	if !ok {
		t.Fatal("ipi-ring profile missing")
	}
	prof.Rounds = 4
	for _, spec := range platform.Registry() {
		if spec.Arch != platform.ARM {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			seq, _ := runSMPCell(spec, prof, false, SMPSweepOptions{})
			par, _ := runSMPCell(spec, prof, true, SMPSweepOptions{})
			if !seq.equivalent(par) {
				t.Errorf("parallel diverges from sequential:\n seq %+v traps %d\n par %+v traps %d",
					seq.stats, seq.traps, par.stats, par.traps)
			}
			if seq.stats.Parallel {
				t.Error("sequential run reports parallel")
			}
		})
	}
}

func TestRunSMPSweep(t *testing.T) {
	cells := Harness{}.RunSMPSweepOpts(SMPSweepSpecs(), SMPSweepOptions{})
	want := len(SMPSweepSpecs()) * len(workload.SMPProfiles())
	if len(cells) != want {
		t.Fatalf("sweep produced %d cells, want %d", len(cells), want)
	}
	widths := map[string]int{"smp8": 8, "smp16": 16, "smp64": 64}
	for _, c := range cells {
		if !c.Identical {
			t.Errorf("%s/%s: parallel run not byte-identical", c.Config, c.Profile)
		}
		if !c.Parallel {
			t.Errorf("%s/%s: parallel run fell back to sequential", c.Config, c.Profile)
		}
		if c.VCPUs != widths[c.Config] {
			t.Errorf("%s/%s: vcpus = %d", c.Config, c.Profile, c.VCPUs)
		}
		if c.Epochs == 0 || c.VClock == 0 || c.DistOps == 0 {
			t.Errorf("%s/%s: empty stats %+v", c.Config, c.Profile, c)
		}
		if c.Profile == "fanout" && c.Contention == 0 {
			t.Errorf("%s/%s: broadcast rounds charged no distributor contention", c.Config, c.Profile)
		}
	}
}

func TestSMPReportShape(t *testing.T) {
	r := Harness{}.RunSMPReportOpts(SMPSweepSpecs(), SMPSweepOptions{})
	if !r.SMP {
		t.Fatal("report not marked smp")
	}
	if !strings.HasSuffix(r.Filename(), "-smp.json") {
		t.Fatalf("Filename = %q", r.Filename())
	}
	if len(r.Suites) != len(r.SMPCells) || len(r.Suites) == 0 {
		t.Fatalf("suites %d vs cells %d", len(r.Suites), len(r.SMPCells))
	}
	for _, s := range r.Suites {
		if !strings.HasPrefix(s.Name, "smp-") {
			t.Errorf("suite %q lacks the smp- prefix benchdiff keys on", s.Name)
		}
	}
	var back Report
	if err := json.Unmarshal(r.JSON(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.SMPCells) != len(r.SMPCells) {
		t.Fatal("smp_cells lost in JSON round trip")
	}
	if FormatSMPReport(r) == "" {
		t.Fatal("empty text rendering")
	}
}
