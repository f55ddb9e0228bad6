package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/nevesim/neve/internal/bench"
	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/workload"
)

// outcome is one cell's result as the benchmark checks and counts it.
type outcome struct {
	out    string // simulated outputs, compared with the digest
	traps  int64  // simulated traps; -1 where the path cannot observe them
	cycles uint64 // simulated guest cycles the cell produced
	failed bool   // a CellFault, a build error, or an SMP run that fell back to sequential
	app    bench.AppResult
	micro  bench.MicroResult
}

var failedCell = outcome{traps: -1, failed: true}

// A suite is one workload: a fixed grid of cells, run pass after pass. The untraced
// path (setup, beginPass, run) is what end-to-end metrics time; the traced
// path (driver) re-runs the same cells through the public API with every
// layer call in a span.
type suite interface {
	name() string
	// cellsFile names the digest file holding the cells' expected outputs.
	cellsFile() string
	// cells names the canonical cell grid of one pass.
	cells() []string
	// hasJIT reports whether the workload runs with the trace-JIT on.
	hasJIT() bool
	// setup prepares the untraced path (with the JIT off when asked).
	setup(e *env, jitOff bool) error
	// beginPass opens a timed untraced pass.
	beginPass()
	// run runs canonical cell i through the untraced path.
	run(i int) outcome
	// tables renders the pass's paper artifacts from outcomes in
	// canonical order ("" when the workload has none).
	tables(outs []outcome) string
	// driver returns the traced path.
	driver(e *env, t *tracer) driver
}

// driver is a suite's traced path.
type driver interface {
	beginPass()
	// run runs canonical cell i, adding its layer counters to m.
	run(i int, m passMetrics) outcome
	// finish runs once after the traced passes, adding run-level metrics
	// to final; it returns outcomes of extra runs to check, if any.
	finish(final passMetrics) []outcome
}

func newWorkload(name string) suite {
	switch name {
	case "fig2":
		return newAppWorkload(name, bench.AllConfigs(), 0)
	case "fig2-guarded":
		return newAppWorkload(name, armConfigs, guardTraps)
	case "micro":
		return newMicroWorkload()
	case "smp-storm":
		return newSMPWorkload()
	}
	return nil
}

var workloadNames = []string{"fig2", "fig2-guarded", "micro", "smp-storm"}

var armConfigs = []bench.ConfigID{bench.ARMVM, bench.ARMNested, bench.ARMNestedVHE, bench.NEVENested, bench.NEVENestedVHE}

// guardTraps is fig2-guarded's per-cell watchdog budget: several times
// the trap count of the largest cell, so no cell reaches it.
const guardTraps = 1_000_000

// cellSpec is the spec the bench harness builds for a cell.
func cellSpec(cfg bench.ConfigID, maxTraps uint64) platform.Spec {
	spec := cfg.Spec()
	spec.CPUs = 2
	spec.MaxTraps = maxTraps
	return spec
}

// appWorkload is fig2 and fig2-guarded: the Table 8 profiles on a set of
// configurations through one warm bench.CellRunner.
type appWorkload struct {
	wname    string
	configs  []bench.ConfigID
	maxTraps uint64
	grid     []appCell
	keys     []string
	runner   *bench.CellRunner
}

type appCell struct {
	prof workload.Profile
	cfg  bench.ConfigID
}

func newAppWorkload(name string, configs []bench.ConfigID, maxTraps uint64) *appWorkload {
	w := &appWorkload{wname: name, configs: configs, maxTraps: maxTraps}
	for _, p := range workload.Profiles() {
		for _, c := range configs {
			w.grid = append(w.grid, appCell{prof: p, cfg: c})
			w.keys = append(w.keys, p.Name+"/"+c.SpecName())
		}
	}
	return w
}

func (w *appWorkload) name() string      { return w.wname }
func (w *appWorkload) cellsFile() string { return "fig2" }
func (w *appWorkload) cells() []string   { return w.keys }
func (w *appWorkload) hasJIT() bool      { return w.maxTraps == 0 }
func (w *appWorkload) beginPass()        {}

func (w *appWorkload) setup(e *env, jitOff bool) error {
	w.runner = bench.Harness{Parallelism: 1, Configs: w.configs, MaxTraps: w.maxTraps, JITOff: jitOff}.NewCellRunner()
	return nil
}

func (w *appWorkload) run(i int) outcome {
	c := w.grid[i]
	res, err := w.runner.App(c.cfg, c.prof.Name)
	if err != nil {
		return failedCell
	}
	return appOutcome(res, -1)
}

func appOutcome(r bench.AppResult, traps int64) outcome {
	return outcome{
		out: fmt.Sprintf("cycles=%d kicks=%d rx=%d ipis=%d hypercalls=%d",
			r.Raw.Cycles, r.Raw.Kicks, r.Raw.RXIRQs, r.Raw.IPIs, r.Raw.Hypercalls),
		traps: traps, cycles: r.Raw.Cycles, failed: r.Fault != nil, app: r,
	}
}

func (w *appWorkload) tables(outs []outcome) string {
	rs := make([]bench.AppResult, len(outs))
	for i, o := range outs {
		rs[i] = o.app
	}
	return bench.FormatFigure2(rs)
}

// appDriver is the traced fig2 path: the harness's warm cell, rebuilt on
// the public API so the guest and platform handed to
// workload.Profile.Run are traced wrappers.
type appDriver struct {
	w        *appWorkload
	t        *tracer
	pool     *pool
	cellSpan map[bench.ConfigID]int32
	arm, x86 guestSpans
	plat     tracedPlatform
}

func (w *appWorkload) driver(e *env, t *tracer) driver {
	d := &appDriver{
		w: w, t: t, pool: newPool(t, nil), cellSpan: map[bench.ConfigID]int32{},
		arm: newGuestSpans(t, "kvm"), x86: newGuestSpans(t, "x86"),
		plat: tracedPlatform{t: t, injectIRQ: t.name("platform.inject_irq"), servePeer: t.name("platform.service_peer")},
	}
	for _, c := range w.configs {
		d.cellSpan[c] = t.name("bench.cell." + c.SpecName())
	}
	return d
}

func (d *appDriver) beginPass()                   {}
func (d *appDriver) finish(passMetrics) []outcome { return nil }

func (d *appDriver) run(i int, m passMetrics) outcome {
	c := d.w.grid[i]
	sp := d.t.begin(d.cellSpan[c.cfg])
	defer d.t.endTo(sp)
	prof := c.prof
	spans := d.arm
	if !c.cfg.IsARM() {
		// The harness's x86 scaling (bench.RunApp).
		prof = prof.Scaled(3)
		spans = d.x86
	}
	native := &workload.Native{}
	nres := prof.Run(native, native, native)
	spec := cellSpec(c.cfg, d.w.maxTraps)
	p, err := d.pool.acquire(spec)
	if err != nil {
		return failedCell
	}
	before := readCounters(p)
	plat := d.plat
	plat.p = p
	var res workload.Result
	err = p.Protect(func() {
		p.PreparePeer()
		p.RunGuest(0, func(g platform.Guest) {
			res = prof.Run(&tracedGuest{g: g, t: d.t, n: spans}, g, &plat)
		})
	})
	if err != nil {
		d.pool.drop(spec)
		return failedCell
	}
	after := readCounters(p)
	traps := after.addSince(before, m)
	r := bench.AppResult{Workload: c.prof.Name, Config: c.cfg, Raw: res, JIT: after.jit.Sub(before.jit),
		Overhead: float64(res.Cycles) / float64(nres.Cycles)}
	return appOutcome(r, int64(traps))
}

// microWorkload is the 28 Table 1/6/7 cells through a fresh CellRunner per
// pass, backed by a durable checkpoint store that setup fills: a fleet
// worker's cold start.
type microWorkload struct {
	grid    []microCell
	keys    []string
	harness bench.Harness
	runner  *bench.CellRunner
}

type microCell struct {
	op  bench.MicroOp
	cfg bench.ConfigID
}

// microOpNames name the operations in cell keys and bench.micro.* spans.
var microOpNames = map[bench.MicroOp]string{
	bench.Hypercall: "hypercall", bench.DeviceIO: "device-io",
	bench.VirtualIPI: "virtual-ipi", bench.VirtualEOI: "virtual-eoi",
}

func newMicroWorkload() *microWorkload {
	w := &microWorkload{}
	for _, op := range bench.MicroOps() {
		for _, c := range bench.AllConfigs() {
			w.grid = append(w.grid, microCell{op: op, cfg: c})
			w.keys = append(w.keys, microOpNames[op]+"/"+c.SpecName())
		}
	}
	return w
}

func (w *microWorkload) name() string      { return "micro" }
func (w *microWorkload) cellsFile() string { return "micro" }
func (w *microWorkload) cells() []string   { return w.keys }
func (w *microWorkload) hasJIT() bool      { return true }

func (w *microWorkload) setup(e *env, jitOff bool) error {
	dir, err := e.tempDir("store-")
	if err != nil {
		return err
	}
	store, err := platform.OpenCheckpointStore(dir)
	if err != nil {
		return err
	}
	w.harness = bench.Harness{Parallelism: 1, Store: store, JITOff: jitOff}
	// One cell per configuration boots it and saves its checkpoint.
	r := w.harness.NewCellRunner()
	for _, c := range bench.AllConfigs() {
		r.Micro(c, bench.Hypercall)
	}
	if st := store.Stats(); st.Saves != uint64(len(bench.AllConfigs())) {
		return fmt.Errorf("micro: checkpoint store filled %d of %d configurations", st.Saves, len(bench.AllConfigs()))
	}
	return nil
}

func (w *microWorkload) beginPass() { w.runner = w.harness.NewCellRunner() }

func (w *microWorkload) run(i int) outcome {
	c := w.grid[i]
	return microOutcome(w.runner.Micro(c.cfg, c.op))
}

func microOutcome(r bench.MicroResult) outcome {
	return outcome{out: "cycles=" + strconv.FormatUint(r.Cycles, 10), traps: int64(r.Traps),
		cycles: r.Cycles, failed: r.Fault != nil, micro: r}
}

func (w *microWorkload) tables(outs []outcome) string {
	rs := make([]bench.MicroResult, len(outs))
	for i, o := range outs {
		rs[i] = o.micro
	}
	return bench.FormatTable1(rs) + bench.FormatTable6(rs) + bench.FormatTable7(rs)
}

// microDriver is the traced micro path: a fresh pool on the same store
// each pass, and bench.RunMicroOn as the measured operation.
type microDriver struct {
	w        *microWorkload
	t        *tracer
	pool     *pool
	cellSpan map[bench.ConfigID]int32
	opSpan   map[bench.MicroOp]int32
}

func (w *microWorkload) driver(e *env, t *tracer) driver {
	d := &microDriver{w: w, t: t, cellSpan: map[bench.ConfigID]int32{}, opSpan: map[bench.MicroOp]int32{}}
	for _, c := range bench.AllConfigs() {
		d.cellSpan[c] = t.name("bench.cell." + c.SpecName())
	}
	for op, name := range microOpNames {
		d.opSpan[op] = t.name("bench.micro." + name)
	}
	return d
}

func (d *microDriver) beginPass()                   { d.pool = newPool(d.t, d.w.harness.Store) }
func (d *microDriver) finish(passMetrics) []outcome { return nil }

func (d *microDriver) run(i int, m passMetrics) outcome {
	c := d.w.grid[i]
	sp := d.t.begin(d.cellSpan[c.cfg])
	defer d.t.endTo(sp)
	spec := cellSpec(c.cfg, 0)
	p, err := d.pool.acquire(spec)
	if err != nil {
		return failedCell
	}
	jit0 := p.JITStats()
	var cycles, traps uint64
	s := d.t.begin(d.opSpan[c.op])
	err = p.Protect(func() { cycles, traps = bench.RunMicroOn(p, c.op) })
	d.t.endTo(s)
	if err != nil {
		d.pool.drop(spec)
		return failedCell
	}
	js := p.JITStats().Sub(jit0)
	addJIT(m, js)
	m.add("trace.traps.n", float64(traps))
	if traps > 0 {
		// RunMicroOn resets the collector before the measured operation,
		// so its counts are that operation's (Table 7's numbers).
		for _, r := range trapReasons {
			m.add("trace.traps."+r.String()+".n", float64(p.Trace().Count(r)))
		}
	}
	return microOutcome(bench.MicroResult{Op: c.op, Config: c.cfg, Cycles: cycles, Traps: traps, JIT: js})
}

// smpWorkload is the storm profiles on smp8 and smp16: each cell a fresh
// platform.Build plus a parallel, adaptive-budget kvm.Stack.RunSMPOpts.
type smpWorkload struct {
	grid   []smpCell
	keys   []string
	jitOff bool
}

type smpCell struct {
	prof workload.SMPProfile
	spec string
}

func newSMPWorkload() *smpWorkload {
	w := &smpWorkload{}
	for _, spec := range []string{"smp8", "smp16"} {
		for _, name := range []string{"storm", "storm-burst"} {
			p, _ := workload.SMPProfileByName(name)
			w.grid = append(w.grid, smpCell{prof: p, spec: spec})
			w.keys = append(w.keys, name+"/"+spec)
		}
	}
	return w
}

func (w *smpWorkload) name() string                    { return "smp-storm" }
func (w *smpWorkload) cellsFile() string               { return "smp-storm" }
func (w *smpWorkload) cells() []string                 { return w.keys }
func (w *smpWorkload) hasJIT() bool                    { return true }
func (w *smpWorkload) setup(e *env, jitOff bool) error { w.jitOff = jitOff; return nil }
func (w *smpWorkload) beginPass()                      {}
func (w *smpWorkload) tables([]outcome) string         { return "" }

func (w *smpWorkload) run(i int) outcome {
	o, _ := w.runCell(nil, -1, -1, i, true, nil)
	return o
}

// smpRun is the host-side record of one SMP run.
type smpRun struct {
	wall, barrier time.Duration
}

// runCell builds cell i's platform and runs its programs, in parallel or
// sequential epochs, under the build and run spans. With m non-nil the
// run's layer counters are added to it.
func (w *smpWorkload) runCell(t *tracer, build, run int32, i int, parallel bool, m passMetrics) (outcome, smpRun) {
	c := w.grid[i]
	spec := platform.MustLookup(c.spec)
	spec.JITOff = w.jitOff
	s := t.begin(build)
	p, err := platform.Build(spec)
	t.endTo(s)
	if err != nil {
		return failedCell, smpRun{}
	}
	st := p.ARM()
	progs := make([]func(g *kvm.SMPGuest), len(st.M.CPUs))
	for j, prog := range c.prof.Programs(len(progs)) {
		prog := prog
		progs[j] = func(g *kvm.SMPGuest) { prog(g) }
	}
	var before counters
	if m != nil {
		before = readCounters(p)
	}
	var cyc0 uint64
	for _, cpu := range st.M.CPUs {
		cyc0 += cpu.Cycles()
	}
	var stats kvm.SMPStats
	s = t.begin(run)
	start := time.Now()
	err = p.Protect(func() {
		stats = st.RunSMPOpts(progs, kvm.SMPOptions{Parallel: parallel, Adaptive: true})
	})
	r := smpRun{wall: time.Since(start), barrier: st.LastSMPBarrierWait()}
	t.endTo(s)
	if err != nil {
		return failedCell, r
	}
	cycles := make([]string, len(st.M.CPUs))
	var cyc uint64
	for j, cpu := range st.M.CPUs {
		cycles[j] = strconv.FormatUint(cpu.Cycles(), 10)
		cyc += cpu.Cycles()
	}
	o := outcome{
		out: fmt.Sprintf("vcpus=%d epochs=%d vclock=%d distops=%d contention=%d budget=%d cycles=%s",
			stats.VCPUs, stats.Epochs, stats.VClock, stats.DistOps, stats.Contention, stats.FinalBudget,
			strings.Join(cycles, ",")),
		traps:  int64(st.M.Trace.Total()),
		cycles: cyc - cyc0,
		failed: parallel && !stats.Parallel,
	}
	if m != nil {
		readCounters(p).addSince(before, m)
		addJIT(m, st.SMPJITStats())
		m.add("kvm.smp.epochs.n", float64(stats.Epochs))
		m.add("gic.dist_ops.n", float64(stats.DistOps))
		m.add("gic.contention.cycles", float64(stats.Contention))
	}
	return o, r
}

// smpDriver is the traced smp-storm path. finish adds one sequential run
// per cell, which is the base of kvm.smp.speedup_x and is checked against
// the same digest (the parallel/sequential equivalence).
type smpDriver struct {
	w               *smpWorkload
	t               *tracer
	cellSpan        map[string]int32
	build, par, seq int32
}

func (w *smpWorkload) driver(e *env, t *tracer) driver {
	d := &smpDriver{w: w, t: t, cellSpan: map[string]int32{},
		build: t.name("platform.build"), par: t.name("kvm.smp.run"), seq: t.name("kvm.smp.seq")}
	for _, c := range w.grid {
		d.cellSpan[c.spec] = t.name("bench.cell." + c.spec)
	}
	return d
}

func (d *smpDriver) beginPass() {}

// metricKey is the cell's infix in per-cell kvm.smp metrics.
func (c smpCell) metricKey() string { return "kvm.smp." + c.prof.Name + "." + c.spec }

func (d *smpDriver) run(i int, m passMetrics) outcome {
	c := d.w.grid[i]
	sp := d.t.begin(d.cellSpan[c.spec])
	defer d.t.endTo(sp)
	o, r := d.w.runCell(d.t, d.build, d.par, i, true, m)
	m.add("kvm.smp.barrier_wait.ms", durMS(r.barrier))
	m.add(c.metricKey()+".barrier_wait.ms", durMS(r.barrier))
	m.add(c.metricKey()+".run.ms", durMS(r.wall))
	return o
}

func (d *smpDriver) finish(final passMetrics) []outcome {
	outs := make([]outcome, len(d.w.grid))
	var seq float64
	for i, c := range d.w.grid {
		d.t.cell = int32(i)
		var r smpRun
		outs[i], r = d.w.runCell(d.t, d.build, d.seq, i, false, nil)
		final[c.metricKey()+".speedup_x"] = ratio(durMS(r.wall), final[c.metricKey()+".run.ms"])
		seq += durMS(r.wall)
	}
	d.t.cell = -1
	final["kvm.smp.seq.ms"] = seq
	final["kvm.smp.speedup_x"] = ratio(seq, final["kvm.smp.run.ms"])
	return outs
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }
