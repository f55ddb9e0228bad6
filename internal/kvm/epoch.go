package kvm

import (
	"fmt"
	"time"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// The deterministic epoch-lockstep SMP engine.
//
// Each vCPU runs its trap-and-emulate stream on its own goroutine; the run
// is divided into epochs of at most EpochBudget guest cycles. Within an
// epoch a vCPU touches only per-vCPU state (its CPU model, contexts,
// VNCR page, private Stage-2 TLB, trace shard), so epochs of
// different vCPUs may execute genuinely in parallel. Every shared-state
// effect — SGI/IPI fan-out through the distributor, shared guest RAM,
// the shared virtio device — is queued (or parked as a thunk) and merged
// at the epoch barrier in vCPU order on a single thread. Because segment
// execution is per-vCPU-pure and barriers are totally ordered, a parallel
// run is byte-identical to a sequential one: same cycle counts, same trap
// streams, same guest-visible values. That equivalence is the engine's
// correctness gate (TestSMPParallelMatchesSequential).
//
// The distributor is also where SMP contention is modeled: the k-th
// distributor transaction merged within one epoch is charged
// k*CostModel.DistContention cycles on its initiating vCPU, reproducing
// the serialization that concurrent SGI writes suffer on real hardware.
//
// Synchronization is one handshake in both modes: each vCPU goroutine
// talks to the coordinator only through its resume/parked channel pair,
// receiving a release on resume and sending its park payload on parked.
// A sequential epoch releases and collects one vCPU at a time; a parallel
// epoch releases every active vCPU, then collects them all. The goroutines
// are started per run and exit once their program has retired. Epochs are
// long (a few dozen per benchmark sweep cell), so per-epoch
// synchronization is noise next to segment execution.

// defaultEpochBudget is the guest-cycle length of one epoch when
// SMPOptions.EpochBudget is zero. Long enough to amortize epoch
// synchronization, short enough to bound IPI delivery latency.
const defaultEpochBudget = 20000

// Adaptive epoch budgets double on quiet epochs and halve on chatty ones
// within these bounds.
const (
	minEpochBudget = 1000
	maxEpochBudget = 262144
)

// SMPOptions configures an SMP run.
type SMPOptions struct {
	// Parallel runs vCPU epochs on concurrent goroutines. The result is
	// byte-identical to a sequential run; only wall-clock time differs.
	// Configurations whose segment execution is not per-vCPU-pure (GICv2
	// shadow pages, fault hooks, copy-on-write restored memory) fall back
	// to sequential execution; SMPStats.Parallel reports the actual mode.
	Parallel bool
	// EpochBudget is the maximum guest cycles a vCPU executes per epoch
	// (0 = defaultEpochBudget). RunSMP uses 1 for legacy strict
	// round-robin interleaving. With Adaptive set it is only the starting
	// budget.
	EpochBudget uint64
	// Adaptive retunes the epoch budget at each barrier from the epoch's
	// cross-vCPU traffic: a quiet epoch (no distributor transactions)
	// doubles the budget up to maxEpochBudget, a chatty one (more
	// transactions than active vCPUs) halves it down to minEpochBudget.
	// The inputs are virtual-time statistics only, so the budget
	// trajectory — and therefore the run — stays deterministic and
	// identical between parallel and sequential execution.
	Adaptive bool
}

// SMPStats summarizes a completed SMP run. Every field is derived from
// virtual time and merge order only, so parallel and sequential runs of
// the same programs produce equal SMPStats (wall-clock measurements live
// on the Stack; see LastSMPBarrierWait and LastSMPMergeTime).
type SMPStats struct {
	// VCPUs is the number of vCPU programs run.
	VCPUs int
	// Parallel reports whether epochs actually ran concurrently (false
	// when the engine fell back to sequential execution).
	Parallel bool
	// Epochs is the number of epoch rounds until all vCPUs finished.
	Epochs uint64
	// VClock is the global virtual clock: the maximum per-vCPU cycle
	// count, advanced at each barrier to the slowest vCPU's position.
	VClock uint64
	// DistOps counts distributor transactions merged at barriers.
	DistOps uint64
	// Contention is the total distributor serialization penalty charged
	// (cycles), per the CostModel.DistContention model.
	Contention uint64
	// FinalBudget is the epoch budget in effect when the run finished:
	// the configured budget for fixed-budget runs, the converged value
	// for adaptive ones.
	FinalBudget uint64
}

// parkKind labels why a vCPU goroutine parked back to the coordinator.
type parkKind int

const (
	// parkEntered: the context chain is entered; the program is about to
	// run. Entry allocates from shared bump allocators, so the
	// coordinator serializes it.
	parkEntered parkKind = iota
	// parkEpoch: the epoch budget expired or the program yielded.
	parkEpoch
	// parkBarrier: the program needs a shared-state operation (op) run at
	// the barrier before it can continue.
	parkBarrier
	// parkFinishing: the program returned; the exit epilogue (cold
	// context switch out) is pending and must run serialized.
	parkFinishing
	// parkDone: the goroutine has fully retired its program and exits.
	parkDone
)

type smpPark struct {
	kind parkKind
	// op is the parked shared-state operation (parkBarrier only),
	// executed by the coordinator at the barrier on the parked vCPU's
	// own CPU context.
	op func()
}

// smpEngine coordinates one RunSMPOpts invocation.
type smpEngine struct {
	s        *Stack
	n        int
	parallel bool
	adaptive bool
	// budget is the current epoch budget. vCPU goroutines read it inside
	// their segments; the coordinator retunes it (adaptive mode) during
	// the merge, while every vCPU is parked.
	budget uint64

	// resume[i]/parked[i] are vCPU i's handshake with the coordinator in
	// every mode: a receive on resume releases the goroutine, and it sends
	// its park payload on parked. The channel operations are the
	// happens-before edges in both directions. state[i] holds the payload
	// last received from vCPU i; only the coordinator touches it.
	resume []chan struct{}
	parked []chan smpPark
	state  []smpPark
	done   []bool

	// barrierWait accumulates the coordinator's wall-clock time collecting
	// parallel epochs, from the last release until every vCPU has parked;
	// segment execution is inside it. mergeTime accumulates the
	// coordinator's serialized merges.
	barrierWait time.Duration
	mergeTime   time.Duration

	ipis   *gic.EpochQueue
	guests []*SMPGuest
	stats  SMPStats
}

// RunSMPOpts runs one program per vCPU of the innermost VM under the
// epoch-lockstep engine and returns the run's statistics. Programs receive
// an SMPGuest wrapping their vCPU's guest context; shared-state operations
// through it are merged deterministically at epoch barriers.
func (s *Stack) RunSMPOpts(programs []func(g *SMPGuest), opts SMPOptions) SMPStats {
	n := len(programs)
	if n == 0 {
		return SMPStats{}
	}
	if n > len(s.M.CPUs) {
		panic(fmt.Sprintf("kvm: %d SMP programs for %d cores", n, len(s.M.CPUs)))
	}
	if s.smpRunning {
		panic("kvm: RunSMP reentered from inside an SMP run")
	}
	budget := opts.EpochBudget
	if budget == 0 {
		budget = defaultEpochBudget
	}
	e := &smpEngine{
		s:        s,
		n:        n,
		budget:   budget,
		parallel: opts.Parallel && s.parallelSafe(n),
		adaptive: opts.Adaptive,
		resume:   make([]chan struct{}, n),
		parked:   make([]chan smpPark, n),
		state:    make([]smpPark, n),
		done:     make([]bool, n),
		ipis:     gic.NewEpochQueue(n),
		guests:   make([]*SMPGuest, n),
	}
	for i := 0; i < n; i++ {
		e.resume[i] = make(chan struct{})
		e.parked[i] = make(chan smpPark)
	}
	e.stats.VCPUs = n
	e.stats.Parallel = e.parallel

	s.smpRunning = true
	teardown := s.smpSetup(n)
	e.run(programs)
	teardown()
	s.smpRunning = false
	s.smpBarrierWait, s.smpMergeTime = e.barrierWait, e.mergeTime

	e.stats.DistOps = e.ipis.Ops()
	e.stats.FinalBudget = e.budget
	s.lastSMP = e.stats
	return e.stats
}

// LastSMP returns the statistics of the most recent completed SMP run.
func (s *Stack) LastSMP() SMPStats { return s.lastSMP }

// parallelSafe reports whether segment execution is per-vCPU-pure in this
// configuration, i.e. whether epochs may run on concurrent goroutines.
func (s *Stack) parallelSafe(n int) bool {
	for _, h := range s.hyps() {
		if h.Cfg.GICv2 {
			// The GICv2 world switch copies virtual-interface state into
			// the VM's shared GIC shadow page on every exit.
			return false
		}
	}
	if s.M.Mem.CoWActive() {
		// Copy-on-write restored memory: the first write to a shared page
		// mutates the page directory, which segments must not race on.
		return false
	}
	for _, c := range s.M.CPUs[:n] {
		if c.Budget != nil {
			// Watchdogs and fault injectors count a global trap stream.
			return false
		}
	}
	return true
}

// smpSetup prepares the machine for (potentially parallel) segment
// execution and returns the matching teardown. The same preparation runs
// in sequential mode so that both modes execute byte-identical streams:
//   - each running CPU gets a private trace shard, merged back into the
//     machine collector in CPU order afterwards;
//   - each running CPU gets a private Stage-2 walker with its own TLB
//     (the shared TLB is not safe for concurrent fills, and per-CPU TLBs
//     make miss patterns independent of sibling scheduling);
//   - machine memory switches to concurrent mode (drops the last-page
//     cache, a pure performance shortcut);
//   - each running CPU detaches the trace-JIT: jit.Engine is not safe
//     for concurrent use, so SMP runs are interpreted and the teardown
//     re-attaches it;
//   - every VM's Stage-2 tables are built up front: the lazy build in
//     vmVTTBR mutates the VM and allocates memory, so two vCPUs of one
//     VM reaching it in the same parallel epoch would race.
func (s *Stack) smpSetup(n int) func() {
	m := s.M
	for _, h := range s.hyps() {
		for _, vm := range h.VMs {
			if vm.s2 == nil {
				h.initVMS2(vm)
			}
		}
	}
	parent := m.Trace
	shards := make([]*trace.Collector, n)
	oldS2 := make([]arm.Stage2, n)
	for i := 0; i < n; i++ {
		c := m.CPUs[i]
		sh := trace.NewCollector(parent.Recording())
		sh.SetEnabled(parent.Enabled())
		if rc := parent.RecentCap(); rc > 0 {
			sh.EnableRecent(rc)
		}
		shards[i] = sh
		c.Trace = sh
		oldS2[i] = c.S2
		c.S2 = &mmu.Stage2{Mem: m.Mem, TLB: mmu.NewTLB(512), WalkCost: m.S2.WalkCost}
		c.SetJIT(nil)
	}
	m.Mem.SetConcurrent(true)
	return func() {
		m.Mem.SetConcurrent(false)
		for i := 0; i < n; i++ {
			c := m.CPUs[i]
			parent.Merge(shards[i])
			c.Trace = parent
			c.S2 = oldS2[i]
			c.SetJIT(s.jit)
		}
	}
}

// run starts one goroutine per vCPU program and drives the epochs to
// completion. Every goroutine has sent parkDone, its last message, by the
// time run returns.
func (e *smpEngine) run(programs []func(g *SMPGuest)) {
	for i := 0; i < e.n; i++ {
		e.guests[i] = &SMPGuest{eng: e, id: i}
		go func() {
			<-e.resume[i]
			e.s.runOn(i, func(g *GuestCtx) {
				sg := e.guests[i]
				sg.GuestCtx = g
				sg.segStart = g.CPU.Cycles()
				sg.park(smpPark{kind: parkEntered})
				programs[i](sg)
				sg.park(smpPark{kind: parkFinishing})
			})
			e.parked[i] <- smpPark{kind: parkDone}
		}()
	}

	// Serialized entry: context-chain entry allocates from shared bump
	// allocators (guest page tables, VNCR pages), so each vCPU enters
	// alone, in vCPU order, before any epoch runs.
	for i := 0; i < e.n; i++ {
		if e.step(i).kind != parkEntered {
			panic("kvm: SMP vCPU parked before completing entry")
		}
	}

	for {
		act := activeVCPUs(e.done)
		if len(act) == 0 {
			break
		}
		e.stats.Epochs++
		if e.parallel {
			for _, i := range act {
				e.resume[i] <- struct{}{}
			}
			t0 := time.Now()
			for _, i := range act {
				e.state[i] = <-e.parked[i]
			}
			e.barrierWait += time.Since(t0)
		} else {
			// Sequential epoch: one segment at a time, vCPU order.
			for _, i := range act {
				e.step(i)
			}
		}
		t0 := time.Now()
		e.merge(act)
		e.mergeTime += time.Since(t0)
	}
}

// step releases vCPU i, waits for it to park again and returns the park.
func (e *smpEngine) step(i int) smpPark {
	e.resume[i] <- struct{}{}
	e.state[i] = <-e.parked[i]
	return e.state[i]
}

// activeVCPUs returns the indices of unfinished vCPUs, in vCPU order.
func activeVCPUs(done []bool) []int {
	var out []int
	for i, d := range done {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// merge applies the epoch's shared-state effects on the coordinator
// thread, in strict vCPU order. Every active vCPU has parked, so the
// coordinator may operate on any of their CPU contexts race-free.
func (e *smpEngine) merge(act []int) {
	// 1. Parked shared-state operations (RAM, shared device registers).
	for _, i := range act {
		if e.state[i].kind == parkBarrier && e.state[i].op != nil {
			e.state[i].op()
			e.state[i].op = nil
		}
	}
	// 2. Distributor merge, one sender lane at a time: queued SGIs replay
	// through the sender's full trap-and-emulate path (the same
	// ICC_SGI1R_EL1 write the guest would have executed), so trap costs
	// and delivery are identical to a sequential stream. The k-th
	// transaction this epoch pays k units of distributor contention,
	// summed per lane and charged in one batch — byte-identical totals
	// to the per-transaction form, one AddCycles per sender.
	cost := e.s.M.CPUs[0].Cost.DistContention
	opsBefore := e.ipis.Ops()
	e.ipis.DrainSenders(func(sender int, lane []gic.SGI, base int) {
		g := e.guests[sender]
		var pen uint64
		for j, sgi := range lane {
			g.GuestCtx.SendIPI(sgi.Target, sgi.INTID)
			if k := base + j; k > 0 {
				pen += uint64(k) * cost
			}
		}
		if pen > 0 {
			g.CPU.AddCycles(pen)
			e.stats.Contention += pen
		}
	})
	traffic := e.ipis.Ops() - opsBefore
	// 3. Exit epilogues: finishing vCPUs run their cold context switch
	// out of the guest one at a time, in vCPU order.
	for _, i := range act {
		if e.state[i].kind == parkFinishing {
			if e.step(i).kind != parkDone {
				panic("kvm: SMP vCPU parked inside its exit epilogue")
			}
			e.done[i] = true
		}
	}
	// 4. Advance the global virtual clock to the slowest vCPU.
	for i := 0; i < e.n; i++ {
		if c := e.s.M.CPUs[i].Cycles(); c > e.stats.VClock {
			e.stats.VClock = c
		}
	}
	// 5. Adaptive retune from this epoch's cross-vCPU traffic. Virtual
	// time only: the trajectory is identical in parallel and sequential
	// mode.
	if e.adaptive {
		switch {
		case traffic == 0:
			if e.budget <= maxEpochBudget/2 {
				e.budget *= 2
			} else {
				e.budget = maxEpochBudget
			}
		case traffic > uint64(len(act)):
			if e.budget/2 >= minEpochBudget {
				e.budget /= 2
			} else {
				e.budget = minEpochBudget
			}
		}
	}
}

// park hands vCPU id's payload to the coordinator and blocks until the
// coordinator resumes it.
func (e *smpEngine) park(id int, p smpPark) {
	e.parked[id] <- p
	<-e.resume[id]
}

// queueIPI records an SGI for merge at the epoch barrier.
func (e *smpEngine) queueIPI(sender, target, intid int) {
	e.ipis.Push(sender, gic.SGI{Target: target, INTID: intid})
}
