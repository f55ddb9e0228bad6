package bench

import (
	"time"

	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/workload"
)

// The SMP scale-out sweep: the multi-vCPU workloads (internal/workload
// SMPProfiles) on the registry's smp configurations, each cell run twice —
// sequential and parallel epochs — so the report carries both the
// wall-clock speedup and the byte-equivalence verdict. Cells run one at a
// time: each parallel cell already fans out one worker per vCPU, so
// stacking cell-level workers on top would oversubscribe the host
// (effective parallelism is min(vCPUs, host cores) per cell, not
// Workers()).

// SMPSweepSpecs are the registry configurations of the scale-out sweep.
func SMPSweepSpecs() []string { return []string{"smp8", "smp16", "smp64"} }

// SMPSweepOptions parameterizes a sweep run.
type SMPSweepOptions struct {
	// Budget is a fixed epoch budget in guest cycles (0 = the engine
	// default) — the explicit -budget axis of the sensitivity table.
	Budget uint64
	// Adaptive lets the engine retune the budget at each barrier from
	// the epoch's cross-vCPU traffic.
	Adaptive bool
	// Profiles restricts the sweep to the named workload profiles (nil =
	// all).
	Profiles []string
}

func (o SMPSweepOptions) profiles() []workload.SMPProfile {
	all := workload.SMPProfiles()
	if len(o.Profiles) == 0 {
		return all
	}
	var out []workload.SMPProfile
	for _, name := range o.Profiles {
		if p, ok := workload.SMPProfileByName(name); ok {
			out = append(out, p)
		}
	}
	return out
}

// SMPCell is one (configuration x profile) measurement of the sweep.
type SMPCell struct {
	// Config is the registry spec name; VCPUs its machine width.
	Config  string `json:"config"`
	Profile string `json:"profile"`
	VCPUs   int    `json:"vcpus"`
	// Budget is the configured epoch budget (0 = engine default);
	// Adaptive marks budget auto-tuning, and FinalBudget is the budget
	// in effect when the parallel run finished.
	Budget      uint64 `json:"budget,omitempty"`
	Adaptive    bool   `json:"adaptive,omitempty"`
	FinalBudget uint64 `json:"final_budget"`
	// SeqWallMS/ParWallMS are the wall-clock times of the sequential and
	// parallel runs; SpeedupX is their ratio (>1 = parallel faster).
	SeqWallMS float64 `json:"seq_wall_ms"`
	ParWallMS float64 `json:"par_wall_ms"`
	SpeedupX  float64 `json:"speedup_x"`
	// Identical is the equivalence gate: the parallel run produced
	// byte-identical per-CPU cycles, trap totals, and engine statistics.
	Identical bool `json:"identical"`
	// Parallel reports whether the parallel run actually ran concurrent
	// epochs (false = the engine fell back to sequential).
	Parallel bool `json:"parallel"`
	// Engine statistics (identical across both runs when Identical).
	Epochs     uint64 `json:"epochs"`
	VClock     uint64 `json:"vclock"`
	DistOps    uint64 `json:"dist_ops"`
	Contention uint64 `json:"contention"`
	// BarrierWaitMS is the wall clock the parallel run's coordinator
	// spent from releasing each parallel epoch until every vCPU parked
	// again: the epoch's segment execution plus the handshake, not the
	// synchronization cost alone.
	BarrierWaitMS float64 `json:"barrier_wait_ms"`
	// MergeMS is the wall clock the parallel run's coordinator spent in
	// the serialized epoch merges (parked operations, the distributor
	// merge, exit epilogues). ParWallMS minus BarrierWaitMS and MergeMS
	// is mostly the serialized context-chain entry.
	MergeMS float64 `json:"merge_ms"`
}

// smpPrograms adapts a workload SMP profile to the kvm engine.
func smpPrograms(p workload.SMPProfile, n int) []func(g *kvm.SMPGuest) {
	progs := p.Programs(n)
	out := make([]func(g *kvm.SMPGuest), n)
	for i, prog := range progs {
		prog := prog
		out[i] = func(g *kvm.SMPGuest) { prog(g) }
	}
	return out
}

// smpFingerprint captures everything the equivalence gate compares.
type smpFingerprint struct {
	stats  kvm.SMPStats
	cycles []uint64
	traps  uint64
	// barrierWait and merge ride along for reporting; equivalent()
	// ignores them (host-side measurements, not guest-visible state).
	barrierWait, merge time.Duration
}

func runSMPCell(spec platform.Spec, p workload.SMPProfile, parallel bool, opts SMPSweepOptions) (smpFingerprint, time.Duration) {
	s := platform.MustBuild(spec).ARM()
	n := len(s.M.CPUs)
	progs := smpPrograms(p, n)
	start := time.Now()
	stats := s.RunSMPOpts(progs, kvm.SMPOptions{
		Parallel:    parallel,
		EpochBudget: opts.Budget,
		Adaptive:    opts.Adaptive,
	})
	wall := time.Since(start)
	fp := smpFingerprint{
		stats:       stats,
		traps:       s.M.Trace.Total(),
		barrierWait: s.LastSMPBarrierWait(),
		merge:       s.LastSMPMergeTime(),
	}
	for _, c := range s.M.CPUs {
		fp.cycles = append(fp.cycles, c.Cycles())
	}
	return fp, wall
}

// equivalent reports whether two runs are byte-identical modulo the
// execution-mode flag.
func (a smpFingerprint) equivalent(b smpFingerprint) bool {
	as, bs := a.stats, b.stats
	as.Parallel, bs.Parallel = false, false
	if as != bs || a.traps != b.traps || len(a.cycles) != len(b.cycles) {
		return false
	}
	for i := range a.cycles {
		if a.cycles[i] != b.cycles[i] {
			return false
		}
	}
	return true
}

// RunSMPSweepOpts measures the sweep cells of the named registry configs
// under the given engine options, sequential then parallel, on fresh
// stacks.
func (h Harness) RunSMPSweepOpts(names []string, opts SMPSweepOptions) []SMPCell {
	var out []SMPCell
	for _, name := range names {
		spec := platform.MustLookup(name)
		if h.JITOff {
			spec.JITOff = true
		}
		for _, p := range opts.profiles() {
			seq, seqWall := runSMPCell(spec, p, false, opts)
			par, parWall := runSMPCell(spec, p, true, opts)
			cell := SMPCell{
				Config:        name,
				Profile:       p.Name,
				VCPUs:         len(seq.cycles),
				Budget:        opts.Budget,
				Adaptive:      opts.Adaptive,
				FinalBudget:   par.stats.FinalBudget,
				SeqWallMS:     float64(seqWall.Microseconds()) / 1000,
				ParWallMS:     float64(parWall.Microseconds()) / 1000,
				Identical:     seq.equivalent(par),
				Parallel:      par.stats.Parallel,
				Epochs:        par.stats.Epochs,
				VClock:        par.stats.VClock,
				DistOps:       par.stats.DistOps,
				Contention:    par.stats.Contention,
				BarrierWaitMS: float64(par.barrierWait.Microseconds()) / 1000,
				MergeMS:       float64(par.merge.Microseconds()) / 1000,
			}
			if parWall > 0 {
				cell.SpeedupX = seqWall.Seconds() / parWall.Seconds()
			}
			out = append(out, cell)
		}
	}
	return out
}
