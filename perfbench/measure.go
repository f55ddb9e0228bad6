package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// processStart anchors the first setup_s sample.
var processStart = time.Now()

const (
	// setupRuns is how many times an untraced run sets up; setup_s is the
	// median.
	setupRuns = 3
	// minPasses is the fewest timed passes of any run.
	minPasses = 3
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env holds a run's scratch directories, removed when it ends.
type env struct {
	dir   string
	temps []string
}

func (e *env) tempDir(prefix string) (string, error) {
	d, err := os.MkdirTemp(e.dir, prefix)
	if err == nil {
		e.temps = append(e.temps, d)
	}
	return d, err
}

func (e *env) cleanup() {
	for _, d := range e.temps {
		os.RemoveAll(d)
	}
}

// session is one workload run: its cells, digest, seeded order and tallies.
type session struct {
	w       suite
	golden  digest
	rng     *rand.Rand
	outs    []outcome
	log     io.Writer
	checked int
	failed  int
}

// sampler collects the timings of a series of passes.
type sampler struct {
	passMS  []float64
	cellMS  []float64
	seconds float64
	cycles  uint64
}

// pass runs every cell once, in an order the seed permutes; outcomes go
// back to their canonical slots and are checked against the digest after
// the pass's timing ends.
func (r *session) pass(s *sampler, begin func(), cell func(i int) outcome) {
	order := r.rng.Perm(len(r.outs))
	start := time.Now()
	begin()
	for _, i := range order {
		t := time.Now()
		r.outs[i] = cell(i)
		if s != nil {
			s.cellMS = append(s.cellMS, durMS(time.Since(t)))
		}
	}
	d := time.Since(start)
	if s != nil {
		s.passMS = append(s.passMS, durMS(d))
		s.seconds += d.Seconds()
		for _, o := range r.outs {
			s.cycles += o.cycles
		}
	}
	r.check(r.outs)
}

func (r *session) check(outs []outcome) {
	r.checked += len(outs)
	r.failed += r.golden.check(r.w, outs)
}

// untracedPasses times passes for at least d, at least minPasses, and
// until the cell p90 has minBeyond samples beyond it.
func (r *session) untracedPasses(d time.Duration) *sampler {
	s := &sampler{}
	deadline := time.Now().Add(d)
	for len(s.passMS) < minPasses || time.Now().Before(deadline) || !tailOK(len(s.cellMS), 0.9) {
		r.pass(s, r.w.beginPass, r.w.run)
	}
	return s
}

// setup runs w's setup and one untimed warm-up pass.
func (r *session) setup(w suite, e *env, jitOff bool) error {
	if err := w.setup(e, jitOff); err != nil {
		return err
	}
	r.pass(nil, w.beginPass, w.run)
	return nil
}

func measure(w suite, o options, log io.Writer) (result, error) {
	golden, err := loadDigest(w)
	if err != nil {
		return result{}, err
	}
	e := &env{dir: o.workDir}
	defer e.cleanup()
	r := &session{w: w, golden: golden, rng: rand.New(rand.NewPCG(o.seed, 0x6e657665)),
		outs: make([]outcome, len(w.cells())), log: log}
	var metrics map[string]float64
	var units []metricDef
	if o.trace {
		metrics, err = r.traced(e, o)
		units = perLayer
	} else {
		metrics, err = r.untraced(e, o)
		units = endToEnd
	}
	if err != nil {
		return result{}, err
	}
	res := result{Correct: r.failed == 0, Attempted: r.checked, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range units {
		res.Metrics[d.name] = metric{Value: metrics[d.name], Unit: d.unit}
	}
	fmt.Fprintf(log, "%s seed=%d trace=%v: error_rate=%g (%d of %d cells failed)\n",
		w.name(), o.seed, o.trace, ratio(float64(r.failed), float64(r.checked)), r.failed, r.checked)
	return res, nil
}

// untraced is a --trace 0 run: repeated setups, then timed passes.
func (r *session) untraced(e *env, o options) (map[string]float64, error) {
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		if err := r.setup(r.w, e, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	s := r.untracedPasses(secondsDur(o.seconds))
	p50, _ := percentile(s.cellMS, 0.5)
	p90, _ := percentile(s.cellMS, 0.9)
	fmt.Fprintf(r.log, "%s: %d passes, %d cell samples (%d beyond p90)\n",
		r.w.name(), len(s.passMS), len(s.cellMS), beyond(len(s.cellMS), 0.9))
	return map[string]float64{
		"setup_s":           median(setups),
		"pass_ms":           median(s.passMS),
		"cell_ms_p50":       p50,
		"cell_ms_p90":       p90,
		"sim_mcycles_per_s": ratio(float64(s.cycles), s.seconds) / 1e6,
		"peak_rss_mb":       peakRSSMB(),
	}, nil
}

// traced is a --trace 1 run. Each round is an untraced pass (the base
// of bench.trace_overhead), a JIT-off pass of a second instance of the
// workload (the base of jit.net_ms) and a traced pass whose spans give
// the per-layer metrics; interleaving them puts all three under the same
// host conditions.
func (r *session) traced(e *env, o options) (map[string]float64, error) {
	on, off := r.w, newWorkload(r.w.name())
	if err := r.setup(on, e, false); err != nil {
		return nil, err
	}
	if on.hasJIT() {
		if err := r.setup(off, e, true); err != nil {
			return nil, err
		}
	}
	t := newTracer()
	d := on.driver(e, t)
	cell := func(m passMetrics) func(i int) outcome {
		return func(i int) outcome {
			t.cell = int32(i)
			defer func() { t.cell = -1 }()
			return d.run(i, m)
		}
	}
	// The traced warm-up: the driver's boots and snapshots land here.
	r.pass(nil, d.beginPass, cell(passMetrics{}))
	warm := passMetrics{}
	t.passSpans(0, warm)

	var passes []passMetrics
	untraced, jitOff := &sampler{}, &sampler{}
	deadline := time.Now().Add(secondsDur(o.seconds))
	for len(passes) < minPasses || time.Now().Before(deadline) {
		r.pass(untraced, on.beginPass, on.run)
		if on.hasJIT() {
			r.pass(jitOff, off.beginPass, off.run)
		}
		t.pass = int32(len(passes))
		from := len(t.spans)
		m := passMetrics{}
		s := &sampler{}
		r.pass(s, d.beginPass, cell(m))
		root, kvmNS := t.passSpans(from, m)
		m["bench.traced_pass_ms"] = s.passMS[0]
		m["bench.span_coverage"] = ratio(durMS(time.Duration(root)), s.passMS[0])
		m.derive(kvmNS)
		passes = append(passes, m)
	}
	final := medians(passes)
	t.pass = -2
	if extra := d.finish(final); extra != nil {
		r.check(extra)
	}
	if on.hasJIT() {
		final["jit.net_ms"] = median(untraced.passMS) - median(jitOff.passMS)
	}
	final["bench.trace_overhead"] = ratio(final["bench.traced_pass_ms"], median(untraced.passMS))
	final["platform.setup.ms"] = warm["platform.build.ms"] + warm["platform.store_load.ms"] +
		warm["platform.decode.ms"] + warm["platform.snapshot.ms"] + warm["platform.restore.ms"]

	path := filepath.Join(o.workDir, "spans-"+r.w.name()+".tsv")
	if err := t.write(path, r.w.cells()); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.log, "%s: %d traced passes, %d spans written to %s\n", r.w.name(), len(passes), len(t.spans), path)
	return final, nil
}

// medians reduces per-pass metrics to their medians, metric by metric.
func medians(passes []passMetrics) passMetrics {
	out := passMetrics{}
	for _, m := range passes {
		for k := range m {
			out[k] = 0
		}
	}
	vals := make([]float64, len(passes))
	for k := range out {
		for i, m := range passes {
			vals[i] = m[k]
		}
		out[k] = median(vals)
	}
	return out
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
