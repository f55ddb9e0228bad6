package main

// The metric contract. endToEnd and perLayer must list exactly the
// metrics of BENCHMARK.json's end_to_end and per_layer arrays
// (TestMetricsMatchBenchmarkJSON). The regression bounds live only in
// BENCHMARK.json.
//
// Every per-layer metric is a median over the traced passes of a per-pass
// value, except the ones marked "once per run". Times are host time:
// self time (span time minus child-span time) for every layer except
// bench.cell.*, which is a cell's inclusive time. Each layer names the
// end-to-end metric, and the workload, it should move; a metric of a
// layer a workload does not use reads zero there.

type metricDef struct {
	name, unit, better string
	moves              string // the end-to-end metric and workload the layer moves
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "pass_ms", unit: "ms", better: "lower"},
	{name: "cell_ms_p50", unit: "ms", better: "lower"},
	{name: "cell_ms_p90", unit: "ms", better: "lower"},
	{name: "sim_mcycles_per_s", unit: "Mcycles/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

const (
	allPass   = "pass_ms, cell_ms_p90 on every workload"
	platMicro = "pass_ms on micro; setup_s on fig2"
	trapPath  = "pass_ms on fig2-guarded (interpreted) and fig2 (replayed)"
	jitPath   = "pass_ms on fig2 and micro (zero on fig2-guarded)"
	smpOnly   = "pass_ms on smp-storm"
	never     = "simulated count; never moves in a speed change"
)

var perLayer = []metricDef{
	{"bench.cell.vm.ms", "ms", "lower", allPass},
	{"bench.cell.v8.3.ms", "ms", "lower", allPass},
	{"bench.cell.v8.3-vhe.ms", "ms", "lower", allPass},
	{"bench.cell.neve.ms", "ms", "lower", allPass + "; NEVE-only changes move only the neve rows"},
	{"bench.cell.neve-vhe.ms", "ms", "lower", allPass + "; NEVE-only changes move only the neve rows"},
	{"bench.cell.x86-vm.ms", "ms", "lower", allPass},
	{"bench.cell.x86-nested.ms", "ms", "lower", allPass},
	{"bench.cell.smp8.ms", "ms", "lower", smpOnly},
	{"bench.cell.smp16.ms", "ms", "lower", smpOnly},
	{"bench.cell_self.ms", "ms", "lower", "pass_ms: the benchmark driver's own share of cells"},
	{"bench.micro.hypercall.ms", "ms", "lower", "pass_ms on micro"},
	{"bench.micro.device-io.ms", "ms", "lower", "pass_ms on micro"},
	{"bench.micro.virtual-ipi.ms", "ms", "lower", "pass_ms on micro"},
	{"bench.micro.virtual-eoi.ms", "ms", "lower", "pass_ms on micro"},

	{"platform.build.n", "count", "lower", platMicro},
	{"platform.build.ms", "ms", "lower", platMicro},
	{"platform.decode.ms", "ms", "lower", platMicro},
	{"platform.store_load.ms", "ms", "lower", platMicro},
	{"platform.snapshot.ms", "ms", "lower", platMicro},
	{"platform.restore.n", "count", "lower", platMicro},
	{"platform.restore.ms", "ms", "lower", platMicro + "; invisible in fig2's pass_ms"},
	{"platform.setup.ms", "ms", "lower", "setup_s on every workload (platform spans of the traced warm-up, once per run)"},

	{"kvm.hypercall.n", "count", "lower", trapPath},
	{"kvm.hypercall.ms", "ms", "lower", trapPath},
	{"kvm.device_read.n", "count", "lower", trapPath},
	{"kvm.device_read.ms", "ms", "lower", trapPath},
	{"kvm.send_ipi.n", "count", "lower", trapPath},
	{"kvm.send_ipi.ms", "ms", "lower", trapPath},
	{"kvm.work.ms", "ms", "lower", trapPath},
	{"platform.inject_irq.ms", "ms", "lower", trapPath},
	{"platform.service_peer.ms", "ms", "lower", trapPath},
	{"x86.hypercall.ms", "ms", "lower", "pass_ms, cell_ms_p90 on fig2"},
	{"x86.device_read.ms", "ms", "lower", "pass_ms, cell_ms_p90 on fig2"},
	{"x86.send_ipi.ms", "ms", "lower", "pass_ms, cell_ms_p90 on fig2"},
	{"x86.work.ms", "ms", "lower", "pass_ms, cell_ms_p90 on fig2"},
	{"kvm.ns_per_trap", "ns", "lower", trapPath + "; kvm self time per simulated ARM trap"},

	{"jit.hits.n", "count", "higher", jitPath},
	{"jit.misses.n", "count", "lower", jitPath},
	{"jit.bailouts.n", "count", "lower", jitPath},
	{"jit.evictions.n", "count", "lower", jitPath},
	{"jit.hit_ratio", "ratio", "higher", jitPath + "; base hits+misses+bailouts"},
	{"jit.net_ms", "ms", "lower", jitPath + "; JIT-on minus JIT-off pass_ms, once per run"},

	{"kvm.smp.run.ms", "ms", "lower", smpOnly},
	{"kvm.smp.seq.ms", "ms", "lower", smpOnly + "; sequential reference runs, once per run"},
	{"kvm.smp.barrier_wait.ms", "ms", "lower", smpOnly},
	{"kvm.smp.speedup_x", "x", "higher", smpOnly},
	{"kvm.smp.epochs.n", "count", "lower", smpOnly},
	{"kvm.smp.storm.smp8.speedup_x", "x", "higher", smpOnly},
	{"kvm.smp.storm.smp8.barrier_wait.ms", "ms", "lower", smpOnly},
	{"kvm.smp.storm.smp16.speedup_x", "x", "higher", smpOnly},
	{"kvm.smp.storm.smp16.barrier_wait.ms", "ms", "lower", smpOnly},
	{"kvm.smp.storm-burst.smp8.speedup_x", "x", "higher", smpOnly},
	{"kvm.smp.storm-burst.smp8.barrier_wait.ms", "ms", "lower", smpOnly},
	{"kvm.smp.storm-burst.smp16.speedup_x", "x", "higher", smpOnly},
	{"kvm.smp.storm-burst.smp16.barrier_wait.ms", "ms", "lower", smpOnly},
	{"gic.dist_ops.n", "count", "lower", smpOnly},
	{"gic.contention.cycles", "cycles", "lower", smpOnly},

	{"trace.traps.n", "count", "lower", never + "; base of kvm.ns_per_trap"},
	{"trace.traps.sysreg.n", "count", "lower", never},
	{"trace.traps.eret.n", "count", "lower", never},
	{"trace.traps.hvc.n", "count", "lower", never},
	{"trace.traps.stage2-fault.n", "count", "lower", never},
	{"trace.traps.irq.n", "count", "lower", never},
	{"trace.traps.wfx.n", "count", "lower", never},
	{"trace.traps.smc.n", "count", "lower", never},
	{"trace.traps.timer.n", "count", "lower", never},
	{"trace.traps.mmio.n", "count", "lower", never},
	{"trace.traps.vmcall.n", "count", "lower", never},
	{"trace.traps.vmread.n", "count", "lower", never},
	{"trace.traps.vmwrite.n", "count", "lower", never},
	{"trace.traps.vmptrld.n", "count", "lower", never},
	{"trace.traps.vmresume.n", "count", "lower", never},
	{"trace.traps.ept-violation.n", "count", "lower", never},
	{"trace.traps.external-interrupt.n", "count", "lower", never},
	{"trace.traps.msr-access.n", "count", "lower", never},

	{"mmu.s2_tlb.hits.n", "count", "higher", "pass_ms on fig2-guarded"},
	{"mmu.s2_tlb.misses.n", "count", "lower", "pass_ms on fig2-guarded"},
	{"mmu.s2_tlb.hit_ratio", "ratio", "higher", "pass_ms on fig2-guarded; base hits+misses"},

	{"bench.traced_pass_ms", "ms", "lower", "pass_ms under tracing"},
	{"bench.trace_overhead", "ratio", "lower", "traced pass_ms / untraced pass_ms, once per run"},
	{"bench.span_coverage", "ratio", "higher", "share of traced pass_ms inside named layer spans"},
}

// passMetrics accumulates one pass's per-layer values by metric name.
// Names outside perLayer are intermediates and are never printed.
type passMetrics map[string]float64

func (m passMetrics) add(name string, v float64) { m[name] += v }
