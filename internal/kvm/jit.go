package kvm

import (
	"encoding/binary"

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
//   - The structural generation (structGen): an interned name for the
//     facts below, equal exactly when they are. Per VM: the Stage-2 root
//     and VMID, the GIC shadow page, whether the guest touched the virtio
//     device, and the backend's ring base. Per vCPU: the shadow Stage-2
//     root. Per guest: the Stage-1 root and the virtio driver's ring base.
//     The distributor: routes and the interrupts at or above jitINTIDs.
//     Table roots are identities a replay depends on: VTTBR writes are
//     harvested as constants.
//   - Poisoned: physical memory contents and page-table descriptors
//     (mem.Memory's Tap), the stage-2 TLB (hits become replay-guard probes
//     via OnLookup; misses and mutations poison), virtual interrupt
//     delivery into a guest with an IRQ observer (GuestCtx.OnIRQ; no
//     workload installs one), enabled-timer evaluation and counter reads,
//     the UART, guest Stage-1 table allocation, and NEVE accesses to an
//     unregistered deferred access page.
//
// Deliberately unguarded:
//   - Table contents: table growth writes simulated memory, which poisons.
//   - Guest IRQ observers: HandleVIRQ poisons before it runs one, so no
//     super-op replays over an observer. Whether one is installed is a
//     tracked vCPU word (vcObserved), so an op recorded unobserved bails
//     once an observer appears.
//   - Virtio ring cursors: every path that reads or advances them moves
//     ring data through memory.
//   - Topology — hypervisor identity, VMs, vCPUs, contexts, distributor
//     targets — is fixed when InstallJIT runs: CreateVM, attach and
//     AddTarget run only during assembly.
//   - The trace collector's mode: platform.Build installs the engine only
//     without trace recording or fault plans, and SMP shards, which toggle
//     counting, never dispatch. The recent-event ring a watchdog enables
//     is replayed (each op carries its tail), not guarded.
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

// bumpGen moves the stack's structural change counter (kept by the host
// hypervisor). Callers bump right after changing a structural fact, with
// no trap in between, so the next read of the generation recomputes it
// from the objects: a recording that builds an object is not promoted,
// and super-ops compiled in another structural state bail. Atomic: SMP
// vCPUs may create objects concurrently while the engine is detached;
// the recompute runs only at a dispatch, on the goroutine driving the
// engine.
func (h *Hypervisor) bumpGen() {
	for h.Parent != nil {
		h = h.Parent
	}
	h.gen.Add(1)
}

// structGen is the stack's structural generation (jit.Hooks.Gen). The id
// names the structural facts exactly: the canonical encoding of the facts
// (appendStructure) is interned, so two states share an id if and only if
// their facts are equal, however they were reached. The id is recomputed
// only when the host's or the distributor's change counter moved.
type structGen struct {
	seen [2]uint64
	id   uint64
	ids  map[string]uint64
	key  []byte
}

// structGen returns the current structural generation.
func (s *Stack) structGen() uint64 {
	g := &s.sgen
	now := [2]uint64{s.Host.gen.Load(), s.M.Dist.Gen()}
	if g.id != 0 && now == g.seen {
		return g.id
	}
	g.seen = now
	g.key = s.appendStructure(g.key[:0])
	id, ok := g.ids[string(g.key)]
	if !ok {
		if g.ids == nil {
			g.ids = make(map[string]uint64)
		}
		id = uint64(len(g.ids)) + 1
		g.ids[string(g.key)] = id
	}
	g.id = id
	return id
}

// appendStructure appends the canonical encoding of the facts structGen
// names. Topology is fixed, so the facts are encoded positionally; every
// optional object is a presence word followed, if present, by its facts.
func (s *Stack) appendStructure(b []byte) []byte {
	put := binary.LittleEndian.AppendUint64
	root := func(b []byte, t *mmu.Tables) []byte {
		if t == nil {
			return put(b, 0)
		}
		return put(put(b, 1), uint64(t.Root))
	}
	for _, h := range s.hyps() {
		for _, vm := range h.VMs {
			b = root(b, vm.s2)
			b = put(put(put(b, uint64(vm.vmid)), uint64(vm.gicShadowOwn)), b2u(vm.virtioOn))
			if vm.echo == nil {
				b = put(b, 0)
			} else {
				b = put(put(b, 1), uint64(vm.echo.Ring.Base))
			}
			for _, v := range vm.VCPUs {
				b = root(b, v.shadowS2)
				// A vCPU's guest is created with the VM and never
				// replaced, so its presence stands for its identity.
				g := v.Guest
				if g == nil {
					b = put(b, 0)
					continue
				}
				b = root(put(b, 1), g.s1)
				if g.vq == nil {
					b = put(b, 0)
				} else {
					b = put(put(b, 1), uint64(g.vq.Ring.Base))
				}
			}
		}
	}
	return s.M.Dist.AppendStructure(b)
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
		AdvanceClock: func(d *jit.ClockDelta) { m.CPUs[d.CPU].JITAdvanceClock(d) },
		TLBProbe: func(vmid uint16, ia uint64) (pa, perm uint64, ok bool) {
			a, p, ok := tlb.Probe(vmid, mem.Addr(ia))
			return uint64(a), uint64(p), ok
		},
		TLBAddHits: tlb.AddHits,
		TLBGen:     tlb.Gen,
		ClockGap:   func(cpu int) uint64 { return m.CPUs[cpu].JITClockGap() },
		Gen:        s.structGen,
		Trace:      m.Trace,
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
	eng.SetBudget(m.CPUs[0].Budget)
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

// SetBudget attaches a watchdog to every core and to the trace-JIT engine,
// installed or not: interpreted traps and Ticks charge it, and so do
// replayed super-ops. Attach it before the stack runs.
func (s *Stack) SetBudget(b jit.Budget) {
	for _, c := range s.M.CPUs {
		c.Budget = b
	}
	if s.jit != nil {
		s.jit.SetBudget(b)
	}
}

// JITStats returns the dispatch counters (zero when no engine is
// installed).
func (s *Stack) JITStats() trace.JITStats {
	if s.jit == nil {
		return trace.JITStats{}
	}
	return s.jit.Stats()
}

// JITOps returns the number of super-ops the engine has compiled (zero when
// no engine is installed).
func (s *Stack) JITOps() int {
	if s.jit == nil {
		return 0
	}
	_, ops := s.jit.Entries()
	return ops
}

// SMPJITStats returns zero: SMP runs are interpreted (smpSetup detaches
// the engine for the run), so no engine dispatches inside one.
func (s *Stack) SMPJITStats() trace.JITStats { return trace.JITStats{} }
