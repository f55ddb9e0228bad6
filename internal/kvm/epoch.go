package kvm

import (
	"fmt"
	"sync"
	"time"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// The deterministic epoch-lockstep SMP engine.
//
// Each vCPU runs its trap-and-emulate stream on its own worker; the run
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
// Synchronization (parallel mode) is two sense-reversing barriers with
// fixed membership (n workers + the coordinator): bStart releases an
// epoch, bEnd ends it. Compared to the per-epoch channel pairs of the
// first version, an epoch costs two barrier crossings total instead of
// 2n channel operations, and retired workers keep pacing the barriers as
// lame ducks so membership never changes mid-run. Workers come from a
// process-wide pool and are reused across runs and sweep cells.

// defaultEpochBudget is the guest-cycle length of one epoch when
// SMPOptions.EpochBudget is zero. Long enough to amortize barrier
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
	// Parallel runs vCPU epochs on concurrent workers. The result is
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
// on the Stack; see LastSMPBarrierWait).
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

// senseBarrier is a reusable sense-reversing barrier with fixed
// membership. Unlike sync.WaitGroup it needs no re-arming between
// phases: each crossing flips the sense, so the same two barrier values
// pace every epoch of a run.
type senseBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	waiting int
	sense   bool
}

func newSenseBarrier(parties int) *senseBarrier {
	b := &senseBarrier{parties: parties}
	b.cond.L = &b.mu
	return b
}

// await blocks until all parties have arrived, then releases them
// together. The barrier's mutex makes every write before an arrival
// happen-before every read after the release.
func (b *senseBarrier) await() {
	b.mu.Lock()
	sense := b.sense
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.sense = !sense
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for b.sense == sense {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// smpWorker is a pooled goroutine executing one job at a time. The jobs
// channel is unbuffered, so handing a worker its next job synchronizes
// with the completion of its previous one — a worker may be released to
// the pool as soon as its job is logically finished.
type smpWorker struct {
	jobs chan func()
}

var (
	smpPoolMu   sync.Mutex
	smpPoolFree []*smpWorker
)

// acquireSMPWorker takes a worker from the process-wide pool, spawning
// one if the pool is empty. Workers persist for the process lifetime:
// across RunSMPOpts calls, sweep cells, and stacks, so steady-state SMP
// runs spawn no goroutines at all.
func acquireSMPWorker() *smpWorker {
	smpPoolMu.Lock()
	if n := len(smpPoolFree); n > 0 {
		w := smpPoolFree[n-1]
		smpPoolFree = smpPoolFree[:n-1]
		smpPoolMu.Unlock()
		return w
	}
	smpPoolMu.Unlock()
	w := &smpWorker{jobs: make(chan func())}
	go func() {
		for job := range w.jobs {
			job()
		}
	}()
	return w
}

func releaseSMPWorker(w *smpWorker) {
	smpPoolMu.Lock()
	smpPoolFree = append(smpPoolFree, w)
	smpPoolMu.Unlock()
}

// parkKind labels why a vCPU worker parked back to the coordinator.
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
	// parkDone: the worker has fully retired its program.
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
	// budget is the current epoch budget. Workers read it between
	// barriers; the coordinator retunes it (adaptive mode) during the
	// merge, while every worker is parked — the barrier crossing is the
	// happens-before edge in both directions.
	budget uint64

	// resume[i]/parked[i] carry the per-vCPU handshakes that stay
	// serialized in every mode: entry, exit epilogues, and (sequential
	// mode) each segment. They are pure signals; the park payload
	// travels in state[i], written by worker i before it signals.
	resume []chan struct{}
	parked []chan struct{}
	state  []smpPark
	done   []bool

	// bStart/bEnd pace parallel epochs; membership is fixed at n+1
	// (workers + coordinator). over releases lame-duck workers after the
	// final epoch; it is written before the coordinator's last bStart
	// crossing and read after the workers'.
	bStart, bEnd *senseBarrier
	over         bool
	// barrierWait accumulates the coordinator's wall-clock wait at bEnd:
	// the synchronization share of the run.
	barrierWait time.Duration

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
		parked:   make([]chan struct{}, n),
		state:    make([]smpPark, n),
		done:     make([]bool, n),
		bStart:   newSenseBarrier(n + 1),
		bEnd:     newSenseBarrier(n + 1),
		ipis:     gic.NewEpochQueue(n),
		guests:   make([]*SMPGuest, n),
	}
	for i := 0; i < n; i++ {
		e.resume[i] = make(chan struct{})
		e.parked[i] = make(chan struct{})
	}
	e.stats.VCPUs = n
	e.stats.Parallel = e.parallel

	s.smpRunning = true
	teardown := s.smpSetup(n)
	e.run(programs)
	teardown()
	s.smpRunning = false
	s.smpBarrierWait = e.barrierWait

	e.stats.DistOps = e.ipis.Ops()
	e.stats.FinalBudget = e.budget
	s.lastSMP = e.stats
	return e.stats
}

// LastSMP returns the statistics of the most recent completed SMP run.
func (s *Stack) LastSMP() SMPStats { return s.lastSMP }

// parallelSafe reports whether segment execution is per-vCPU-pure in this
// configuration, i.e. whether epochs may run on concurrent workers.
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
		if c.HookTrap != nil || c.Budget != nil {
			// Fault injectors and watchdogs observe a global trap stream.
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
//   - each running CPU detaches the trace-JIT: the whole-stack engine's
//     walk and chain state span all cores, so SMP runs are interpreted
//     and the teardown re-attaches it;
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

// run executes the worker protocol to completion.
func (e *smpEngine) run(programs []func(g *SMPGuest)) {
	workers := make([]*smpWorker, e.n)
	for i := 0; i < e.n; i++ {
		i := i
		e.guests[i] = &SMPGuest{eng: e, id: i}
		workers[i] = acquireSMPWorker()
		workers[i].jobs <- func() {
			<-e.resume[i]
			e.s.runOn(i, func(g *GuestCtx) {
				sg := e.guests[i]
				sg.GuestCtx = g
				sg.segStart = g.CPU.Cycles()
				sg.park(smpPark{kind: parkEntered})
				programs[i](sg)
				sg.park(smpPark{kind: parkFinishing})
			})
			e.state[i] = smpPark{kind: parkDone}
			e.parked[i] <- struct{}{}
			if e.parallel {
				// Lame duck: the sense barriers have fixed membership, so
				// a retired worker keeps pacing them until the run is over.
				for {
					e.bStart.await()
					if e.over {
						return
					}
					e.bEnd.await()
				}
			}
		}
	}
	defer func() {
		for _, w := range workers {
			releaseSMPWorker(w)
		}
	}()

	// Serialized entry: context-chain entry allocates from shared bump
	// allocators (guest page tables, VNCR pages), so each vCPU enters
	// alone, in vCPU order, before any epoch runs.
	for i := 0; i < e.n; i++ {
		e.resume[i] <- struct{}{}
		<-e.parked[i]
		if e.state[i].kind != parkEntered {
			panic("kvm: SMP worker parked before completing entry")
		}
	}

	first := true
	for {
		act := activeVCPUs(e.done)
		if len(act) == 0 {
			break
		}
		e.stats.Epochs++
		if e.parallel {
			if first {
				// After entry every worker is blocked on its resume
				// channel; the first epoch is released there. All later
				// epochs release through bStart.
				for i := 0; i < e.n; i++ {
					e.resume[i] <- struct{}{}
				}
				first = false
			} else {
				e.bStart.await()
			}
			t0 := time.Now()
			e.bEnd.await()
			e.barrierWait += time.Since(t0)
		} else {
			// Sequential epoch: one segment at a time, vCPU order.
			for _, i := range act {
				e.resume[i] <- struct{}{}
				<-e.parked[i]
			}
		}
		e.merge(act)
	}
	if e.parallel && !first {
		// Release the lame ducks into retirement.
		e.over = true
		e.bStart.await()
	}
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
// thread, in strict vCPU order. Every parked worker has crossed bEnd (or
// signaled parked[i] in sequential mode), so the coordinator may operate
// on any parked vCPU's CPU context race-free.
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
			e.resume[i] <- struct{}{}
			<-e.parked[i]
			if e.state[i].kind != parkDone {
				panic("kvm: SMP worker parked inside its exit epilogue")
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

// park blocks the calling worker until the coordinator resumes it. The
// park payload is written to state before the signal; the channel send
// (or barrier crossing) publishes it.
func (e *smpEngine) park(id int, p smpPark) {
	e.state[id] = p
	if e.parallel && p.kind != parkEntered {
		e.bEnd.await()
		if p.kind == parkFinishing {
			// The exit epilogue stays channel-serialized even in parallel
			// mode: the coordinator runs finishing vCPUs one at a time.
			<-e.resume[id]
			return
		}
		e.bStart.await()
		return
	}
	e.parked[id] <- struct{}{}
	<-e.resume[id]
}

// queueIPI records an SGI for merge at the epoch barrier.
func (e *smpEngine) queueIPI(sender, target, intid int) {
	e.ipis.Push(sender, gic.SGI{Target: target, INTID: intid})
}
