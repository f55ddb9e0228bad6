package kvm

import (
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// This file wires the trace-JIT engine (internal/jit) to an assembled
// stack. Every piece of software state a trap sequence can read or write
// is either a tracked word, a tracked queue, covered by the structural
// generation, or poisoned:
//
//   - Tracked files (read set guarded, write set restored): saved register
//     contexts, each CPU's system registers and mode words, each
//     hypervisor's loaded contexts and allocation cursors, each vCPU's
//     bookkeeping, each VM's virtio registers, and the distributor's low
//     interrupt state. In-flight forwarding records (pendingFwd,
//     pendingEntry) are flag files: no super-op consumes a record it did
//     not create or leaves one in flight.
//   - Tracked queues: the CPUs' pending physical and the vCPUs' pending
//     virtual interrupts.
//   - The structural generation (the distributor's gen plus the host's
//     bumpGen count): creation of VM and shadow Stage-2 tables, guest
//     Stage-1 tables, the virtio device and its backend, the guest virtio
//     driver, and guest IRQ handlers.
//   - Poisoned: physical memory contents and page-table descriptors
//     (mem.Memory's Tap), the stage-2 TLB (hits become replay-guard probes
//     via OnLookup; misses and mutations poison), virtual interrupt
//     delivery into a guest, enabled-timer evaluation and counter reads,
//     the UART, guest Stage-1 table allocation, and NEVE accesses to an
//     unregistered deferred access page.
//
// Deliberately unguarded:
//   - Table Root is set only at construction and at restore, and restore
//     resets the engine; table growth writes simulated memory, which
//     poisons.
//   - Virtio ring cursors and the guest driver's ring base: every path
//     that reads or advances them moves ring data through memory.
//   - Topology — hypervisor identity, VMs, vCPUs, contexts, distributor
//     targets — is fixed when InstallJIT runs: CreateVM, attach and
//     AddTarget run only during assembly.
//   - The trace collector's mode: platform.Build installs the engine only
//     without trace recording, fault plans or watchdogs, and SMP shards,
//     which toggle counting, never dispatch.
//   - Cycle accounting: expressed as ClockDeltas.

// words is a small tracked file of model bookkeeping words: every access
// goes through get and set, which report to the engine tap InstallJIT
// installs (nil until then). Each word is one field, so no setter is a
// read-modify-write.
type words struct {
	w  []uint64
	jt *jit.FileTap
}

func newWords(n int) words { return words{w: make([]uint64, n)} }

func (t *words) get(i int) uint64 {
	t.jt.Read(i)
	return t.w[i]
}

func (t *words) set(i int, v uint64) {
	t.jt.Write(i)
	t.w[i] = v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// bumpGen moves the stack's structural generation (kept by the host
// hypervisor). Callers bump before building a lazily created object, so
// a recording that builds one is not promoted and every super-op compiled
// before it bails. Atomic: SMP vCPUs may create objects concurrently.
func (h *Hypervisor) bumpGen() {
	for h.Parent != nil {
		h = h.Parent
	}
	h.gen.Add(1)
}

// InstallJIT attaches a trace-JIT engine to the stack: every core
// dispatches through it, its poison taps cover memory, the UART, and the
// stage-2 TLB, and every tracked file and queue is registered with it.
// Install after assembly; repeated calls are no-ops.
func (s *Stack) InstallJIT() {
	if s.jit != nil {
		return
	}
	m := s.M
	tlb := m.S2.TLB
	var eng *jit.Engine
	hooks := jit.Hooks{
		NumCPUs:      len(m.CPUs),
		ClockState:   func(cpu int) jit.ClockState { return m.CPUs[cpu].JITClockState() },
		AdvanceClock: func(cpu int, d jit.ClockDelta) { m.CPUs[cpu].JITAdvanceClock(d) },
		TLBProbe: func(vmid uint16, ia uint64) (pa, perm uint64, ok bool) {
			a, p, ok := tlb.Probe(vmid, mem.Addr(ia))
			return uint64(a), uint64(p), ok
		},
		TLBAddHits: tlb.AddHits,
		TLBGen:     tlb.Gen,
		ClockGap:   func(cpu int) uint64 { return m.CPUs[cpu].JITClockGap() },
		// Both counters only grow between engine resets, so their sum
		// moves exactly when either does.
		Gen:   func() uint64 { return m.Dist.Gen() + s.Host.gen.Load() },
		Trace: m.Trace,
		Arm: func() {
			m.Mem.Tap = eng.Poison
			m.UART.Tap = eng.Poison
			tlb.OnMutate = eng.Poison
			tlb.OnLookup = func(vmid uint16, ia, pa mem.Addr, perm mmu.Perm, hit bool) {
				eng.LogProbe(vmid, uint64(ia), uint64(pa), uint64(perm), hit)
			}
		},
		Disarm: func() {
			m.Mem.Tap = nil
			m.UART.Tap = nil
			tlb.OnMutate = nil
			tlb.OnLookup = nil
		},
	}
	eng = jit.New(hooks)
	file := func(f []uint64) *jit.FileTap { return eng.Tap(eng.RegisterFile(f)) }
	flags := func(f []uint64) *jit.FileTap { return eng.Tap(eng.RegisterFlags(f)) }
	for _, h := range s.hyps() {
		h.loaded.jt = file(h.loaded.w)
		h.alloc.jt = file(h.alloc.w)
		for i := range h.pendingFwd {
			h.pendingFwd[i].jt = flags(h.pendingFwd[i].flag[:])
		}
		for i := range h.hostCtxs {
			h.hostCtxs[i].jt = file(h.hostCtxs[i].regs[:])
		}
		for _, vm := range h.VMs {
			vm.vio.jt = file(vm.vio.w)
			for _, v := range vm.VCPUs {
				for _, ctx := range []*Context{&v.EL1, &v.VEL2, &v.VirtEL1, &v.PageCtx} {
					ctx.jt = file(ctx.regs[:])
				}
				v.st.jt = file(v.st.w)
				v.pendingEntry.jt = flags(v.pendingEntry.flag[:])
				v.virqTap = eng.RegisterQueue(&v.pendingVIRQ)
			}
		}
	}
	m.Dist.SetJIT(eng)
	for _, c := range m.CPUs {
		c.SetJIT(eng)
	}
	s.jit = eng
}

// JITStats returns the dispatch counters (zero when no engine is
// installed).
func (s *Stack) JITStats() trace.JITStats {
	if s.jit == nil {
		return trace.JITStats{}
	}
	return s.jit.Stats()
}

// SMPJITStats returns zero: SMP runs are interpreted (smpSetup detaches
// the engine for the run), so no engine dispatches inside one.
func (s *Stack) SMPJITStats() trace.JITStats { return trace.JITStats{} }
