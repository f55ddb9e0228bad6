package kvm

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/nevesim/neve/internal/fault"
)

func TestSMPInterleavesDeterministically(t *testing.T) {
	run := func() (order []int, cycles [2]uint64) {
		s := NewVMStack(StackOptions{CPUs: 2})
		s.RunSMP([]func(g *SMPGuest){
			func(g *SMPGuest) {
				for i := 0; i < 5; i++ {
					order = append(order, 0)
					g.Work(1000)
				}
				cycles[0] = g.Cycles()
			},
			func(g *SMPGuest) {
				for i := 0; i < 5; i++ {
					order = append(order, 1)
					g.Work(1000)
				}
				cycles[1] = g.Cycles()
			},
		})
		return order, cycles
	}
	o1, c1 := run()
	o2, c2 := run()
	if len(o1) != 10 {
		t.Fatalf("order = %v", o1)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("nondeterministic interleaving: %v vs %v", o1, o2)
		}
	}
	if c1 != c2 {
		t.Fatalf("nondeterministic cycles: %v vs %v", c1, c2)
	}
	// Strict round-robin at Work boundaries.
	for i := 0; i+1 < len(o1); i += 2 {
		if o1[i] == o1[i+1] {
			t.Fatalf("no interleaving at step %d: %v", i, o1)
		}
	}
}

func TestSMPPingPongIPIs(t *testing.T) {
	// Two vCPUs exchange IPIs: each waits for the other's interrupt, a
	// genuinely concurrent pattern (hackbench's synchronization shape).
	s := NewVMStack(StackOptions{CPUs: 2})
	var got0, got1 []int
	// Handlers are part of the guest kernels, installed before the
	// programs run (interrupts may arrive the moment a vCPU is entered).
	s.VM.VCPUs[0].Guest.OnIRQ(func(intid int) { got0 = append(got0, intid) })
	s.VM.VCPUs[1].Guest.OnIRQ(func(intid int) { got1 = append(got1, intid) })
	s.RunSMP([]func(g *SMPGuest){
		func(g *SMPGuest) {
			g.SendIPI(1, 2)
			for i := 0; i < 4 && len(got0) == 0; i++ {
				g.Work(500)
			}
		},
		func(g *SMPGuest) {
			for i := 0; i < 4 && len(got1) == 0; i++ {
				g.Work(500)
			}
			g.SendIPI(0, 3)
		},
	})
	if len(got1) != 1 || got1[0] != 2 {
		t.Fatalf("vcpu1 received %v, want [2]", got1)
	}
	if len(got0) != 1 || got0[0] != 3 {
		t.Fatalf("vcpu0 received %v, want [3]", got0)
	}
}

func TestSMPNestedSharedMemory(t *testing.T) {
	// Two nested vCPUs communicate through their shared nested RAM, each
	// through its own shadow Stage-2.
	s := NewNestedStack(StackOptions{CPUs: 2, GuestNEVE: true})
	s.RunSMP([]func(g *SMPGuest){
		func(g *SMPGuest) {
			g.RAMWrite64(0x500, 0xf00d)
			g.Work(100)
		},
		func(g *SMPGuest) {
			g.Work(100) // let vcpu0 write first (round-robin order)
			if got := g.RAMRead64(0x500); got != 0xf00d {
				t.Errorf("vcpu1 read %#x, want 0xf00d", got)
			}
		},
	})
}

// smpWorkout is a mixed per-vCPU program exercising every SMPGuest
// operation class: in-segment work and hypercalls, barrier-merged IPIs,
// shared RAM, and both halves of the device window. Results land in
// per-vCPU slots so parallel segments never race on Go state.
func smpWorkout(n int, irqs [][]int, sums, cycles []uint64) []func(g *SMPGuest) {
	progs := make([]func(g *SMPGuest), n)
	for i := 0; i < n; i++ {
		i := i
		progs[i] = func(g *SMPGuest) {
			g.OnIRQ(func(intid int) { irqs[i] = append(irqs[i], intid) })
			g.RAMWrite64(uint64(0x1000+16*i), uint64(i)+1)
			for r := 0; r < 3; r++ {
				g.Work(700)
				g.SendIPI((i+1)%n, (i+r)%MaxGuestSGI)
				g.Hypercall()
				g.Work(900)
			}
			sums[i] = g.RAMRead64(uint64(0x1000 + 16*((i+1)%n)))
			if i%2 == 0 {
				g.DeviceRead(0x10)
			}
			cycles[i] = g.Cycles()
		}
	}
	return progs
}

type smpRunResult struct {
	irqs   [][]int
	sums   []uint64
	cycles []uint64
	total  uint64
	traps  uint64
	stats  SMPStats
}

func runSMPWorkout(s *Stack, n int, opts SMPOptions) smpRunResult {
	r := smpRunResult{
		irqs:   make([][]int, n),
		sums:   make([]uint64, n),
		cycles: make([]uint64, n),
	}
	r.stats = s.RunSMPOpts(smpWorkout(n, r.irqs, r.sums, r.cycles), opts)
	r.total = s.M.TotalCycles()
	r.traps = s.M.Trace.Total()
	return r
}

// TestSMPParallelMatchesSequential is the engine's equivalence gate:
// parallel epochs must be byte-identical to sequential ones — same
// per-vCPU cycles, same IRQ streams, same guest-visible values, same trap
// totals, same engine statistics.
func TestSMPParallelMatchesSequential(t *testing.T) {
	stacks := map[string]func() *Stack{
		"vm":     func() *Stack { return NewVMStack(StackOptions{CPUs: 4}) },
		"nested": func() *Stack { return NewNestedStack(StackOptions{CPUs: 4, GuestNEVE: true}) },
		"pv":     func() *Stack { return NewNestedStack(StackOptions{CPUs: 4}) },
	}
	for name, mk := range stacks {
		t.Run(name, func(t *testing.T) {
			for _, budget := range []uint64{1, 1500, 0} {
				seq := runSMPWorkout(mk(), 4, SMPOptions{EpochBudget: budget})
				par := runSMPWorkout(mk(), 4, SMPOptions{EpochBudget: budget, Parallel: true})
				if !par.stats.Parallel {
					t.Fatalf("budget %d: parallel run fell back to sequential", budget)
				}
				if seq.stats.Parallel {
					t.Fatalf("budget %d: sequential run reports parallel", budget)
				}
				par.stats.Parallel = false
				if par.stats != seq.stats {
					t.Errorf("budget %d: stats diverge: par %+v vs seq %+v", budget, par.stats, seq.stats)
				}
				if !reflect.DeepEqual(par.cycles, seq.cycles) {
					t.Errorf("budget %d: cycles diverge: par %v vs seq %v", budget, par.cycles, seq.cycles)
				}
				if !reflect.DeepEqual(par.irqs, seq.irqs) {
					t.Errorf("budget %d: IRQ streams diverge: par %v vs seq %v", budget, par.irqs, seq.irqs)
				}
				if !reflect.DeepEqual(par.sums, seq.sums) {
					t.Errorf("budget %d: RAM values diverge: par %v vs seq %v", budget, par.sums, seq.sums)
				}
				if par.total != seq.total || par.traps != seq.traps {
					t.Errorf("budget %d: totals diverge: par (%d cyc, %d traps) vs seq (%d cyc, %d traps)",
						budget, par.total, par.traps, seq.total, seq.traps)
				}
			}
		})
	}
}

func TestSMPSingleVCPU(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 2})
	var c uint64
	st := s.RunSMPOpts([]func(g *SMPGuest){
		func(g *SMPGuest) {
			g.Work(5000)
			g.Hypercall()
			c = g.Cycles()
		},
	}, SMPOptions{Parallel: true, EpochBudget: 1000})
	if c == 0 {
		t.Fatal("program did not run")
	}
	if st.VCPUs != 1 || st.Epochs == 0 || st.VClock < c {
		t.Fatalf("stats = %+v (vcpu cycles %d)", st, c)
	}
	if got := s.LastSMP(); got != st {
		t.Fatalf("LastSMP = %+v, want %+v", got, st)
	}
}

func TestSMPFewerProgramsThanCores(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 4})
	idle2, idle3 := s.M.CPUs[2].Cycles(), s.M.CPUs[3].Cycles()
	var ids []int
	s.RunSMP([]func(g *SMPGuest){
		func(g *SMPGuest) { g.Work(100); ids = append(ids, g.ID()) },
		func(g *SMPGuest) { g.Work(100); ids = append(ids, g.ID()) },
	})
	if s.M.CPUs[2].Cycles() != idle2 || s.M.CPUs[3].Cycles() != idle3 {
		t.Fatal("idle cores accumulated cycles")
	}
	if !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("ids = %v", ids)
	}
}

func TestSMPFinishWithoutYield(t *testing.T) {
	// A vCPU whose program never reaches a scheduling boundary must still
	// retire cleanly alongside yielding siblings.
	s := NewVMStack(StackOptions{CPUs: 2})
	var ran [2]bool
	st := s.RunSMPOpts([]func(g *SMPGuest){
		func(g *SMPGuest) { ran[0] = true }, // no yield, no work
		func(g *SMPGuest) {
			for i := 0; i < 3; i++ {
				g.Work(10)
				g.Yield()
			}
			ran[1] = true
		},
	}, SMPOptions{EpochBudget: 1_000_000})
	if !ran[0] || !ran[1] {
		t.Fatalf("ran = %v", ran)
	}
	if st.Epochs == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSMPAllDoneAdvance(t *testing.T) {
	// vCPUs finishing in different epochs exercise the shrinking-active-set
	// path down to the all-done exit.
	s := NewVMStack(StackOptions{CPUs: 4})
	var rounds [3]int
	st := s.RunSMPOpts([]func(g *SMPGuest){
		func(g *SMPGuest) { g.Work(10); rounds[0]++ },
		func(g *SMPGuest) {
			for i := 0; i < 4; i++ {
				g.Work(10)
				rounds[1]++
			}
		},
		func(g *SMPGuest) {
			for i := 0; i < 8; i++ {
				g.Work(10)
				rounds[2]++
			}
		},
	}, SMPOptions{EpochBudget: 1})
	if rounds != [3]int{1, 4, 8} {
		t.Fatalf("rounds = %v", rounds)
	}
	if st.Epochs < 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSMPEarlyRetirementNoLeak(t *testing.T) {
	// vCPU 0 retires in the first epoch while its siblings run many more:
	// the parallel run must still match the sequential one, and every vCPU
	// goroutine must be gone once RunSMPOpts returns.
	const n = 4
	run := func(parallel bool) (SMPStats, []uint64, uint64) {
		s := NewVMStack(StackOptions{CPUs: n})
		progs := make([]func(g *SMPGuest), n)
		progs[0] = func(g *SMPGuest) {}
		for i := 1; i < n; i++ {
			progs[i] = func(g *SMPGuest) {
				for r := 0; r < 40; r++ {
					g.Work(300)
					g.SendIPI((g.ID()+1)%n, r%MaxGuestSGI)
				}
			}
		}
		before := runtime.NumGoroutine()
		st := s.RunSMPOpts(progs, SMPOptions{Parallel: parallel, EpochBudget: 500})
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("parallel=%v: %d goroutines after the run, %d before", parallel, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		var cycles []uint64
		for _, c := range s.M.CPUs {
			cycles = append(cycles, c.Cycles())
		}
		return st, cycles, s.M.Trace.Total()
	}
	seq, seqCycles, seqTraps := run(false)
	par, parCycles, parTraps := run(true)
	if !par.Parallel {
		t.Fatal("parallel run fell back to sequential")
	}
	if seq.Epochs < 20 {
		t.Fatalf("siblings ran only %d epochs; the test needs a long tail after vCPU 0 retires", seq.Epochs)
	}
	par.Parallel = false
	if par != seq {
		t.Errorf("stats diverge: par %+v vs seq %+v", par, seq)
	}
	if !reflect.DeepEqual(parCycles, seqCycles) {
		t.Errorf("cycles diverge: par %v vs seq %v", parCycles, seqCycles)
	}
	if parTraps != seqTraps {
		t.Errorf("traps diverge: par %d vs seq %d", parTraps, seqTraps)
	}
}

func TestSMPEmptyProgramList(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 2})
	if st := s.RunSMPOpts(nil, SMPOptions{Parallel: true}); st != (SMPStats{}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSMPParallelFallsBackOnGICv2 pins when a parallel request runs its
// epochs sequentially. The GICv2 world switch writes the VM's shared GIC
// shadow page, and a budget (a watchdog or a fault plan's injector)
// counts one global trap stream, so both make parallel segments unsafe.
func TestSMPParallelFallsBackOnGICv2(t *testing.T) {
	for _, tc := range []struct {
		name     string
		build    func() *Stack
		parallel bool
	}{
		{"gicv3", func() *Stack { return NewVMStack(StackOptions{CPUs: 2}) }, true},
		{"gicv2", func() *Stack { return NewVMStack(StackOptions{CPUs: 2, GICv2: true}) }, false},
		{"budget", func() *Stack {
			s := NewVMStack(StackOptions{CPUs: 2})
			s.SetBudget(fault.NewInjector(fault.Plan{Every: 1 << 40}, nil))
			return s
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build().RunSMPOpts([]func(g *SMPGuest){
				func(g *SMPGuest) { g.Work(100) },
				func(g *SMPGuest) { g.Work(100) },
			}, SMPOptions{Parallel: true})
			if st.Parallel != tc.parallel {
				t.Fatalf("Parallel = %v, want %v: %+v", st.Parallel, tc.parallel, st)
			}
		})
	}
}

func TestSMPDistContentionCharged(t *testing.T) {
	// Two senders firing SGIs in the same epoch: the second transaction
	// merged at the barrier pays the distributor serialization penalty.
	s := NewVMStack(StackOptions{CPUs: 2})
	st := s.RunSMPOpts([]func(g *SMPGuest){
		func(g *SMPGuest) { g.SendIPI(1, 1); g.Work(100) },
		func(g *SMPGuest) { g.SendIPI(0, 2); g.Work(100) },
	}, SMPOptions{EpochBudget: 1000})
	if st.DistOps != 2 {
		t.Fatalf("DistOps = %d, want 2", st.DistOps)
	}
	want := s.M.CPUs[0].Cost.DistContention
	if st.Contention != want {
		t.Fatalf("Contention = %d, want %d", st.Contention, want)
	}
}

func TestSMPCheckpointRoundTripsStats(t *testing.T) {
	s := NewVMStack(StackOptions{CPUs: 2})
	progs := func() []func(g *SMPGuest) {
		return []func(g *SMPGuest){
			func(g *SMPGuest) { g.Work(500); g.SendIPI(1, 1) },
			func(g *SMPGuest) { g.Work(900) },
		}
	}
	first := s.RunSMPOpts(progs(), SMPOptions{EpochBudget: 200})
	cp := s.Checkpoint()
	second := s.RunSMPOpts(progs(), SMPOptions{EpochBudget: 50})
	if second == first {
		t.Fatal("second run produced identical stats; test is vacuous")
	}
	s.Restore(cp)
	if got := s.LastSMP(); got != first {
		t.Fatalf("restored LastSMP = %+v, want %+v", got, first)
	}
}
