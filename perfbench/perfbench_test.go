package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite digests/ from fresh traced passes")

// tracedPass sets w up and runs one traced pass in the seed's cell order,
// returning the outcomes in canonical order.
func tracedPass(t *testing.T, w suite, seed uint64) []outcome {
	t.Helper()
	e := &env{dir: t.TempDir()}
	t.Cleanup(e.cleanup)
	if err := w.setup(e, false); err != nil {
		t.Fatal(err)
	}
	d := w.driver(e, newTracer())
	r := &session{w: w, golden: digest{cells: map[string]goldenCell{}}, rng: rand.New(rand.NewPCG(seed, 0)),
		outs: make([]outcome, len(w.cells()))}
	r.pass(nil, d.beginPass, func(i int) outcome { return d.run(i, passMetrics{}) })
	return r.outs
}

// TestDigests runs every workload's cells in two seeds' orders: the
// simulated outputs must be identical and match the committed digests
// (fig2-guarded against fig2's cells).
func TestDigests(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := tracedPass(t, newWorkload(name), 1)
			w := newWorkload(name)
			b := tracedPass(t, w, 2)
			if formatCells(w, a) != formatCells(w, b) || w.tables(a) != w.tables(b) {
				t.Fatalf("seeds 1 and 2 give different outputs:\n%s\n%s", formatCells(w, a), formatCells(w, b))
			}
			if *update {
				if w.cellsFile() == name {
					writeDigest(t, name+".cells", formatCells(w, a))
				}
				if tab := w.tables(a); tab != "" {
					writeDigest(t, name+".table", tab)
				}
				return
			}
			golden, err := loadDigest(w)
			if err != nil {
				t.Fatal(err)
			}
			if bad := golden.check(w, a); bad != 0 {
				t.Fatalf("%d cells differ from the digest:\n%s", bad, formatCells(w, a))
			}
		})
	}
}

func writeDigest(t *testing.T, file, content string) {
	if err := os.WriteFile(filepath.Join("digests", file), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPerturbedDigestFails: a wrong expected output makes the run report
// a nonzero error rate.
func TestPerturbedDigestFails(t *testing.T) {
	w := newWorkload("micro")
	golden, err := loadDigest(w)
	if err != nil {
		t.Fatal(err)
	}
	key := w.cells()[3]
	g := golden.cells[key]
	g.out += "1"
	golden.cells[key] = g
	e := &env{dir: t.TempDir()}
	defer e.cleanup()
	r := &session{w: w, golden: golden, rng: rand.New(rand.NewPCG(1, 0)), outs: make([]outcome, len(w.cells()))}
	if err := r.setup(w, e, false); err != nil {
		t.Fatal(err)
	}
	if rate := ratio(float64(r.failed), float64(r.checked)); rate <= 0 {
		t.Fatalf("error_rate = %g with a perturbed digest, want > 0", rate)
	}
}

// TestGuardedTableMatchesFig2Rows: fig2-guarded's Figure 2 is fig2's with
// the two x86 columns dropped, row for row.
func TestGuardedTableMatchesFig2Rows(t *testing.T) {
	full, err1 := digestFS.ReadFile("digests/fig2.table")
	guarded, err2 := digestFS.ReadFile("digests/fig2-guarded.table")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	fl, gl := strings.Split(string(full), "\n"), strings.Split(string(guarded), "\n")
	if len(fl) != len(gl) {
		t.Fatalf("%d rows vs %d", len(fl), len(gl))
	}
	for i := range fl {
		if !strings.HasPrefix(fl[i], gl[i]) {
			t.Errorf("row %d: fig2-guarded %q is not a prefix of fig2 %q", i, gl[i], fl[i])
		}
	}
}

// TestRunReportsContractMetrics runs the cheap workloads end to end in
// both modes: correct results and exactly the contract's metrics.
func TestRunReportsContractMetrics(t *testing.T) {
	for _, name := range []string{"micro", "smp-storm"} {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace, "--work-dir", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace %s: %+v", name, trace, res)
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v", name, trace, d.name, m)
				}
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestMetricsMatchBenchmarkJSON: the metric lists are BENCHMARK.json's.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, j, d)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1)
		}
		return s
	}
	// 100 samples: p90 is the 90th, with 10 beyond it.
	if v, ok := percentile(samples(100), 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// 99 samples: p90 is the 90th (rank ceil(89.1)), with only 9 beyond.
	if v, ok := percentile(samples(99), 0.9); v != 90 || ok {
		t.Errorf("p90 of 1..99 = %v, %v; want 90, false", v, ok)
	}
	if v, ok := percentile(samples(20), 0.5); v != 10 || !ok {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(nil, 0.9); ok {
		t.Error("p90 of no samples reported")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// cell [0,100] holds a [10,40] (which holds b [20,25]) and c [50,60].
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 40},
		{parent: 1, start: 20, end: 25},
		{parent: 0, start: 50, end: 60},
	}
	want := []int64{60, 25, 5, 10}
	got := selfTimes(spans, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
	// A tail of a longer trace: parent indices are absolute.
	if got := selfTimes(spans[1:], 1); got[0] != 25 || got[1] != 5 || got[2] != 10 {
		t.Fatalf("tail self times %v, want [25 5 10]", got)
	}
}

func TestSpanUnwindClosesOpenSpans(t *testing.T) {
	tr := newTracer()
	cell := tr.begin(tr.name("bench.cell.vm"))
	tr.begin(tr.name("kvm.work")) // never closed: a fault unwound through it
	tr.endTo(cell)
	if tr.open != -1 || tr.spans[1].end == 0 || tr.spans[0].end < tr.spans[1].end {
		t.Fatalf("spans after unwind: %+v (open %d)", tr.spans, tr.open)
	}
}

func TestRatioZeroBase(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	m := passMetrics{}
	m.derive(0)
	for _, k := range []string{"jit.hit_ratio", "mmu.s2_tlb.hit_ratio", "kvm.ns_per_trap"} {
		if m[k] != 0 {
			t.Errorf("%s = %v with zero bases, want 0", k, m[k])
		}
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
}
