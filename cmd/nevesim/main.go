// Command nevesim regenerates the paper's evaluation artifacts on the
// simulated hardware:
//
//	nevesim table1     Table 1: microbenchmark cycles, ARMv8.3 vs x86
//	nevesim table6     Table 6: microbenchmark cycles with NEVE
//	nevesim table7     Table 7: traps to the host hypervisor
//	nevesim table8     Table 8: the application benchmark descriptions
//	nevesim fig2       Figure 2: application benchmark overhead
//	nevesim events     Figure 2 event-count analysis (the x86 anomaly)
//	nevesim trapcost   Section 5: trap-cost interchangeability validation
//	nevesim ablation   NEVE mechanism ablation (Section 6 attribution)
//	nevesim optvhe     Section 7.1: optimized VHE guest hypervisor
//	nevesim recursive  Section 6.2: an L3 hypercall, ARMv8.3 vs NEVE
//	nevesim bench      time the suites; -json writes BENCH_<date>.json,
//	                   -coldboot disables the warm-boot checkpoint cache,
//	                   -cpuprofile/-memprofile capture pprof profiles
//	nevesim smp        SMP scale-out sweep (epoch-lockstep engine):
//	                   sequential vs parallel vCPU execution per cell with
//	                   the byte-equivalence verdict; -json writes
//	                   BENCH_<date>-smp[-adaptive].json, -cpus N restricts
//	                   the sweep to configurations of that machine width,
//	                   -profile to one workload, -budget N fixes the epoch
//	                   budget (0 = adaptive auto-tuning), -cpuprofile
//	                   captures a pprof CPU profile of the sweep
//	nevesim run        microbenchmark one configuration: -config <name|axes>;
//	                   -faults <plan> injects seeded faults, -max-traps/
//	                   -max-steps attach watchdog budgets (non-zero exit
//	                   with a SimError diagnostic on livelock)
//	nevesim fleet      run the full sweep as a reconciling fleet of worker
//	                   processes (internal/fleet): -workers N, -store DIR
//	                   shares a durable checkpoint store, -configs a,b
//	                   restricts the sweep, -retries/-max-traps/-max-steps
//	                   shape recovery, -kill-after N injects a worker crash,
//	                   -check verifies the merged report byte-identical to a
//	                   single-process run, -json emits the sweep as JSON
//	nevesim serve      speak the fleet worker protocol on stdin/stdout
//	                   (spawned by `nevesim fleet`; not for interactive use)
//	nevesim all        everything above except bench, run, fleet and serve
//
// Experiment cells run across a worker pool (every cell gets a private
// simulated machine — warm-restored from a boot checkpoint by default —
// and results are order- and value-identical to a sequential cold run);
// -parallel N overrides the GOMAXPROCS default. -jit=off disables the
// trace-JIT layer (internal/jit) for every ARM cell; measured outputs are
// byte-identical either way, only wall time moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/bench"
	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/fleet"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/trace"
	"github.com/nevesim/neve/internal/workload"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nevesim [-parallel N] [table1|table6|table7|table8|fig2|events|trapcost|ablation|optvhe|recursive|bench|smp|run|fleet|serve|all]")
	os.Exit(2)
}

func main() {
	flag.Usage = usage
	parallel := flag.Int("parallel", 0, "worker count for experiment cells (0 = GOMAXPROCS)")
	jitMode := flag.String("jit", "on", "trace-JIT layer for experiment cells: on or off")
	flag.Parse()
	if *jitMode != "on" && *jitMode != "off" {
		fmt.Fprintf(os.Stderr, "nevesim: -jit=%s is not on or off\n", *jitMode)
		os.Exit(2)
	}
	h := bench.Harness{Parallelism: *parallel, JITOff: *jitMode == "off"}
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	switch cmd {
	case "table1":
		fmt.Print(bench.FormatTable1(h.RunAllMicro()))
	case "table6":
		fmt.Print(bench.FormatTable6(h.RunAllMicro()))
	case "table7":
		fmt.Print(bench.FormatTable7(h.RunAllMicro()))
	case "table8":
		fmt.Print(bench.FormatTable8())
	case "fig2":
		fmt.Print(bench.FormatFigure2(h.RunFigure2()))
	case "events":
		fmt.Print(bench.FormatFigure2Events(h.RunFigure2Events(
			[]bench.ConfigID{bench.ARMNested, bench.NEVENested, bench.X86Nested})))
	case "trapcost":
		trapCost()
	case "ablation":
		fmt.Print(bench.FormatAblation(h.RunAblation(false)))
	case "optvhe":
		fmt.Print(bench.FormatOptimizedVHE(bench.RunOptimizedVHE()))
	case "recursive":
		recursive()
	case "bench":
		benchReport(h, flag.Args()[1:])
	case "smp":
		smpReport(h, flag.Args()[1:])
	case "run":
		runConfig(flag.Args()[1:])
	case "fleet":
		fleetSweep(h, flag.Args()[1:])
	case "serve":
		if err := fleet.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "nevesim serve:", err)
			os.Exit(1)
		}
	case "all":
		micro := h.RunAllMicro()
		fmt.Print(bench.FormatTable1(micro))
		fmt.Println()
		fmt.Print(bench.FormatTable6(micro))
		fmt.Println()
		fmt.Print(bench.FormatTable7(micro))
		fmt.Println()
		fmt.Print(bench.FormatTable8())
		fmt.Println()
		fmt.Print(bench.FormatFigure2(h.RunFigure2()))
		fmt.Println()
		fmt.Print(bench.FormatFigure2Events(h.RunFigure2Events(
			[]bench.ConfigID{bench.ARMNested, bench.NEVENested, bench.X86Nested})))
		fmt.Println()
		trapCost()
		fmt.Println()
		fmt.Print(bench.FormatAblation(h.RunAblation(false)))
		fmt.Println()
		fmt.Print(bench.FormatOptimizedVHE(bench.RunOptimizedVHE()))
		fmt.Println()
		recursive()
	default:
		usage()
	}
}

// benchReport times the suites; with -json it writes BENCH_<date>.json in
// the current directory for cross-PR performance tracking, and with
// -cpuprofile/-memprofile it captures pprof profiles of the run (the
// profiling toolchain behind `make profile`; see EXPERIMENTS.md).
// -coldboot disables the warm-boot checkpoint cache so every cell builds
// its platform from scratch — the baseline the warm numbers are compared
// against (outputs are byte-identical either way; only wall time moves).
func benchReport(h bench.Harness, args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "write BENCH_<date>.json")
	coldBoot := fs.Bool("coldboot", false, "disable the warm-boot checkpoint cache (cold baseline)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file")
	fs.Parse(args)
	h.ColdBoot = *coldBoot
	defer startCPUProfile(*cpuProf)()
	r := h.RunBenchReport()
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nevesim:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report live objects, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nevesim:", err)
			os.Exit(1)
		}
	}
	fmt.Print(bench.FormatReport(r))
	if *jsonOut {
		name := r.Filename()
		if err := os.WriteFile(name, r.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "nevesim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", name)
	}
}

// startCPUProfile starts a pprof CPU profile written to path and returns
// the function that stops it; an empty path profiles nothing.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nevesim:", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "nevesim:", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// smpReport runs the SMP scale-out sweep (internal/bench RunSMPReportOpts):
// every cell sequential then parallel on the epoch-lockstep engine, with
// the byte-equivalence verdict per cell. -cpus restricts the sweep to
// registry configurations of that machine width; -profile to one workload
// profile. -budget N fixes the epoch budget (the sensitivity axis); 0,
// the default, selects adaptive auto-tuning. -json writes
// BENCH_<date>-smp[-adaptive].json for cross-PR tracking via benchdiff's
// -smp-threshold. -cpuprofile writes a pprof CPU profile of the sweep
// (`make profile` takes smp.cpu.pprof this way). Exits non-zero if any
// cell diverges — the sweep doubles as a determinism gate, not just a
// benchmark.
func smpReport(h bench.Harness, args []string) {
	fs := flag.NewFlagSet("smp", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "write BENCH_<date>-smp[-adaptive].json")
	cpus := fs.Int("cpus", 0, "restrict the sweep to configurations with this vCPU count (0 = all)")
	budget := fs.Uint64("budget", 0, "epoch budget in guest cycles (0 = adaptive auto-tuning)")
	profile := fs.String("profile", "", "restrict the sweep to this workload profile (default all)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	fs.Parse(args)
	opts := bench.SMPSweepOptions{Budget: *budget, Adaptive: *budget == 0}
	if *profile != "" {
		if _, ok := workload.SMPProfileByName(*profile); !ok {
			fmt.Fprintf(os.Stderr, "nevesim smp: unknown profile %q (have:", *profile)
			for _, p := range workload.SMPProfiles() {
				fmt.Fprintf(os.Stderr, " %s", p.Name)
			}
			fmt.Fprintln(os.Stderr, ")")
			os.Exit(2)
		}
		opts.Profiles = []string{*profile}
	}
	specs := bench.SMPSweepSpecs()
	if *cpus != 0 {
		var kept []string
		for _, name := range specs {
			if platform.MustLookup(name).CPUs == *cpus {
				kept = append(kept, name)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "nevesim smp: no sweep configuration has %d vCPUs (widths:", *cpus)
			for _, name := range specs {
				fmt.Fprintf(os.Stderr, " %d", platform.MustLookup(name).CPUs)
			}
			fmt.Fprintln(os.Stderr, ")")
			os.Exit(2)
		}
		specs = kept
	}
	stopProfile := startCPUProfile(*cpuProf)
	r := h.RunSMPReportOpts(specs, opts)
	stopProfile()
	fmt.Print(bench.FormatSMPReport(r))
	diverged := false
	for _, c := range r.SMPCells {
		if !c.Identical {
			fmt.Fprintf(os.Stderr, "nevesim smp: %s/%s parallel run diverged from sequential\n", c.Config, c.Profile)
			diverged = true
		}
	}
	if *jsonOut {
		name := r.Filename()
		if err := os.WriteFile(name, r.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "nevesim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", name)
	}
	if diverged {
		os.Exit(1)
	}
}

// fleetSweep runs the full sweep as a reconciling fleet: worker
// processes (`nevesim serve` re-invocations of this binary) are fed
// cells over stdin/stdout, crashes are recovered by respawn + capped
// exponential backoff retries, and the merged result is byte-identical
// to a single-process harness run — which -check verifies on the spot.
// -kill-worker/-kill-after inject a deterministic worker crash
// mid-sweep (the CI smoke test's chaos hook). Exits non-zero only if
// the fleet cannot start, -check fails, or cells degraded (every retry
// died with its worker).
func fleetSweep(h bench.Harness, args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	workers := fs.Int("workers", 2, "worker process count")
	store := fs.String("store", "", "durable checkpoint store directory shared by all workers")
	configsF := fs.String("configs", "", "comma-separated registry spec names (default: the full sweep)")
	maxTraps := fs.Uint64("max-traps", 0, "per-cell trap budget (0 = unlimited)")
	maxSteps := fs.Uint64("max-steps", 0, "per-cell guest-instruction budget (0 = unlimited)")
	retries := fs.Int("retries", 0, "per-cell retry budget for cells lost to worker deaths (0 = default)")
	killWorker := fs.Int("kill-worker", 0, "worker slot armed by -kill-after")
	killAfter := fs.Int("kill-after", 0, "crash injection: the armed worker dies receiving its Nth cell (0 = off)")
	check := fs.Bool("check", false, "re-run the sweep in-process and verify the merged report is byte-identical")
	jsonOut := fs.Bool("json", false, "emit the sweep result as JSON instead of tables")
	fs.Parse(args)

	var configs []bench.ConfigID
	if *configsF != "" {
		for _, name := range strings.Split(*configsF, ",") {
			c, ok := bench.ConfigByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "nevesim fleet: unknown config %q (have:", name)
				for _, c := range bench.AllConfigs() {
					fmt.Fprintf(os.Stderr, " %s", c.SpecName())
				}
				fmt.Fprintln(os.Stderr, ")")
				os.Exit(2)
			}
			configs = append(configs, c)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nevesim fleet:", err)
		os.Exit(1)
	}
	opts := fleet.Options{
		Workers:      *workers,
		WorkerCmd:    []string{exe, "serve"},
		WorkerStderr: os.Stderr,
		Configs:      configs,
		JITOff:       h.JITOff,
		MaxTraps:     *maxTraps,
		MaxSteps:     *maxSteps,
		StoreDir:     *store,
		MaxRetries:   *retries,
		CrashWorker:  *killWorker,
		CrashAfter:   *killAfter,
		Log:          os.Stderr,
	}
	res, err := fleet.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nevesim fleet:", err)
		os.Exit(1)
	}
	if *jsonOut {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "nevesim fleet:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(b, '\n'))
	} else {
		fmt.Print(res.Tables())
		fmt.Print(fleet.FormatStats(res.Stats))
	}
	failed := false
	if res.Stats.Degraded > 0 {
		fmt.Fprintf(os.Stderr, "nevesim fleet: %d cells degraded (see the report's degraded list)\n", res.Stats.Degraded)
		failed = true
	}
	if *check {
		if err := res.Check(opts.Reference()); err != nil {
			fmt.Fprintln(os.Stderr, "nevesim fleet:", err)
			failed = true
		} else {
			fmt.Fprintln(os.Stderr, "nevesim fleet: check ok — merged report byte-identical to single-process harness")
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runConfig microbenchmarks one platform spec — a registry name or an
// ad-hoc axis list — including combinations outside the paper's matrix
// (e.g. -config gicv2,hostvhe,nesting=2,neve). -faults attaches a seeded
// fault-injection plan, and -max-traps/-max-steps attach watchdog budgets:
// a run that trap-storms or livelocks exits non-zero with a SimError
// diagnostic instead of hanging (see EXPERIMENTS.md, "Fault injection &
// fuzzing").
func runConfig(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	config := fs.String("config", "", "registry name or axis=value list (see -list)")
	list := fs.Bool("list", false, "list the registry spec names and exit")
	faults := fs.String("faults", "", "fault-injection plan, e.g. seed=42,every=100,count=5,kinds=irq+vncr")
	maxTraps := fs.Uint64("max-traps", 0, "abort after this many traps (0 = unlimited)")
	maxSteps := fs.Uint64("max-steps", 0, "abort after this many guest instructions (0 = unlimited)")
	fs.Parse(args)
	if *list || *config == "" {
		fmt.Println("registry specs:")
		for _, name := range platform.Names() {
			spec := platform.MustLookup(name)
			fmt.Printf("  %-22s %s\n", name, spec.Axes())
		}
		fmt.Println("or an axis list, e.g. -config arch=arm,nesting=2,neve,gicv2,hostvhe")
		if !*list {
			os.Exit(2)
		}
		return
	}
	spec, err := platform.Parse(*config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nevesim run:", err)
		os.Exit(1)
	}
	spec.Faults, err = fault.ParsePlan(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nevesim run:", err)
		os.Exit(1)
	}
	spec.MaxTraps = *maxTraps
	spec.MaxSteps = *maxSteps
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nevesim run:", err)
		os.Exit(1)
	}
	if spec.Name != "" {
		fmt.Printf("config %s (%s)\n", spec.Name, spec.Axes())
	} else {
		fmt.Printf("config %s\n", spec.Axes())
	}
	if spec.Faults.Active() {
		fmt.Printf("faults %s\n", spec.Faults)
	}
	for _, op := range bench.MicroOps() {
		p, err := platform.Build(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nevesim run:", err)
			os.Exit(1)
		}
		var cycles, traps uint64
		runErr := p.Protect(func() { cycles, traps = bench.RunMicroOn(p, op) })
		if runErr != nil {
			var se *fault.SimError
			if errors.As(runErr, &se) {
				fmt.Fprintf(os.Stderr, "nevesim run: %s died:\n%s", op, se.Diagnostic())
			} else {
				fmt.Fprintln(os.Stderr, "nevesim run:", runErr)
			}
			os.Exit(1)
		}
		fmt.Printf("  %-12s %12s cycles %6d traps", op, fmtN(cycles), traps)
		if lv := p.LevelCycles(0); len(lv) > 0 {
			fmt.Printf("   per-level")
			for l, c := range lv {
				if c != 0 {
					fmt.Printf(" L%d:%d", l, c)
				}
			}
		}
		fmt.Println()
		if inj := p.Injector(); inj != nil {
			for _, line := range inj.Log() {
				fmt.Printf("      injected %s\n", line)
			}
		}
	}
}

func fmtN(n uint64) string {
	if n < 1000 {
		return fmt.Sprintf("%d", n)
	}
	return fmtN(n/1000) + fmt.Sprintf(",%03d", n%1000)
}

// recursive measures an L3 hypercall (Section 6.2).
func recursive() {
	fmt.Println("Recursive virtualization (Section 6.2): one hypercall from an L3 VM")
	for _, name := range []string{"recursive-v8.3", "recursive-neve"} {
		spec := platform.MustLookup(name)
		label := "ARMv8.3"
		if spec.NEVE {
			label = "NEVE"
		}
		p := platform.MustBuild(spec)
		var cycles uint64
		p.RunGuest(0, func(g platform.Guest) {
			g.Hypercall()
			p.Trace().Reset()
			before := g.Cycles()
			g.Hypercall()
			cycles = g.Cycles() - before
		})
		fmt.Printf("  %-8s %12d cycles  %6d traps\n", label, cycles, p.Trace().Total())
	}
}

type nullHandler struct{}

func (nullHandler) HandleTrap(c *arm.CPU, e *arm.Exception) uint64 { return 0 }

// trapCost reproduces the Section 5 validation: the trap cost of different
// system register access instructions compared to hvc (paper: 68-76 cycles
// in, 65 out, spread below 10%).
func trapCost() {
	fmt.Println("Trap-cost validation (Section 5): EL1->EL2 round trips")
	probes := []struct {
		name string
		fire func(c *arm.CPU)
	}{
		{"hvc #0", func(c *arm.CPU) { c.HVC(0) }},
		{"msr VTTBR_EL2", func(c *arm.CPU) { c.MSR(arm.VTTBR_EL2, 1) }},
		{"mrs ESR_EL2", func(c *arm.CPU) { _ = c.MRS(arm.ESR_EL2) }},
		{"msr HCR_EL2", func(c *arm.CPU) { c.MSR(arm.HCR_EL2, 0) }},
		{"msr SCTLR_EL1 (NV1)", func(c *arm.CPU) { c.MSR(arm.SCTLR_EL1, 0) }},
		{"eret", func(c *arm.CPU) { c.ERET() }},
	}
	var min, max uint64
	for _, p := range probes {
		c := arm.NewCPU(0, mem.New(0), arm.FeaturesV83())
		c.Vector = nullHandler{}
		c.Trace = trace.NewCollector(false)
		c.SetReg(arm.HCR_EL2, arm.HCRNV|arm.HCRNV1)
		var cost uint64
		c.RunGuest(1, func() {
			before := c.Cycles()
			p.fire(c)
			cost = c.Cycles() - before
		})
		fmt.Printf("  %-22s %4d cycles (enter %d + return %d)\n",
			p.name, cost, c.Cost.TrapEnter, c.Cost.TrapReturn)
		if min == 0 || cost < min {
			min = cost
		}
		if cost > max {
			max = cost
		}
	}
	spread := float64(max-min) / float64(max) * 100
	fmt.Printf("  spread: %.1f%% (paper requires < 10%% for paravirtual interchangeability)\n", spread)
}
