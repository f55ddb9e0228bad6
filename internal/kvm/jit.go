package kvm

import (
	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/trace"
)

// This file wires the trace-JIT engine (internal/jit) to an assembled
// stack: a single jit.Source that walks every piece of software state a
// trap sequence can read or write, plus the hooks that arm the poison taps
// covering everything the walk deliberately excludes.
//
// The exclusions and why they are sound:
//   - Physical memory contents and page-table descriptors: every access
//     goes through mem.Memory, whose Tap poisons active recordings.
//   - The stage-2 TLB: hits become replay-guard probes via OnLookup;
//     misses and mutations poison.
//   - Guest IRQ handler closures, IRQCount, and everything else touched in
//     GuestCtx.HandleVIRQ: delivery poisons at its entry point.
//   - Virtio ring cursors (Echo and Driver): every path that reads or
//     advances them moves ring data through memory first, which poisons.
//   - Timer state: enabled-line evaluation and counter reads poison.
//   - NEVE deferred access pages: registered pages resolve to the vCPU's
//     tracked PageCtx store (read/write-set tracked like any Context);
//     only the unregistered-page fallback in core.pageAccess poisons.
//   - Cycle accounting: expressed as ClockDeltas, not walked.
//   - Saved register contexts (Context): tracked by read/write set
//     through jit.FileTap instead of walked — see InstallJIT.
type stackSource struct {
	s *Stack
	// sinks is the closed set of values arm.CPU.VIRQ takes in an
	// assembled stack (nil plus every GuestCtx); the walk records the
	// identity index, making sink changes replayable.
	sinks []arm.VIRQSink
	// vcpus is the identity table for loadedCtx.vcpu (index 0 is nil).
	vcpus []*VCPU
	// hypList is s.hyps() precomputed at install (hyps() allocates, and
	// the walk runs on every replay); host/gh/gh2 pin the Stack fields it
	// was derived from so a swapped hypervisor fails the walk instead of
	// silently going unwalked.
	hypList       []*Hypervisor
	host, gh, gh2 *Hypervisor
}

func (src *stackSource) sinkIndex(v arm.VIRQSink) int {
	for i, s := range src.sinks {
		if s == v {
			return i
		}
	}
	return -1
}

func (src *stackSource) vcpuIndex(v *VCPU) int {
	for i, s := range src.vcpus {
		if s == v {
			return i
		}
	}
	return -1
}

// WalkJIT implements jit.Source over the whole stack. The walk order is
// fixed by the (fixed at assembly) topology, and every state-dependent
// branch is pinned with a Shape word.
func (src *stackSource) WalkJIT(w *jit.W) {
	s := src.s
	w.Shape(s.M.Trace.JITMode())
	s.M.Dist.WalkJIT(w)
	for _, c := range s.M.CPUs {
		c.WalkJIT(w)
		idx := src.sinkIndex(c.VIRQ)
		if idx < 0 {
			w.Fail()
			return
		}
		tmp := uint64(idx)
		w.Word(&tmp)
		c.VIRQ = src.sinks[tmp]
	}
	if s.Host != src.host || s.GuestHyp != src.gh || s.GuestHyp2 != src.gh2 {
		w.Fail()
		return
	}
	for _, h := range src.hypList {
		src.walkHyp(w, h)
	}
}

func (src *stackSource) walkHyp(w *jit.W, h *Hypervisor) {
	for i := range h.hostCtxs {
		if h.hostCtxs[i].jt == nil {
			// A context created after InstallJIT is untracked: its reads
			// would go unguarded, so no super-op may span it.
			w.Fail()
			return
		}
	}
	for i := range h.loaded {
		lc := &h.loaded[i]
		idx := src.vcpuIndex(lc.vcpu)
		if idx < 0 {
			w.Fail()
			return
		}
		tmp := uint64(idx) | uint64(lc.mode)<<16
		w.Word(&tmp)
		lc.vcpu = src.vcpus[tmp&0xffff]
		lc.mode = runMode(tmp >> 16)
	}
	for _, f := range h.pendingFwd {
		if f != nil {
			// An exit queued for forwarding is in flight; its payload is not
			// expressible as a state word.
			w.Fail()
			return
		}
	}
	if h.guestMem != nil {
		w.Shape(1)
		tmp := uint64(h.guestMem.next)
		w.Word(&tmp)
		h.guestMem.next = mem.Addr(tmp)
	} else {
		w.Shape(0)
	}
	tmp := uint64(h.nextVMID)
	w.Word(&tmp)
	h.nextVMID = uint16(tmp)
	for _, vm := range h.VMs {
		src.walkVM(w, vm)
	}
}

// walkTables pins a table tree's Go-side state. The descriptors themselves
// live in simulated memory (tap-poisoned); Root and the page count only
// change alongside descriptor writes, but walking them is cheap insurance.
// Presence and the page count share one shape word (page counts stay far
// below the presence bit).
func walkTables(w *jit.W, t *mmu.Tables) {
	if t == nil {
		w.Shape(0)
		return
	}
	w.Shape(1<<63 | uint64(t.Pages()))
	tmp := uint64(t.Root)
	w.Word(&tmp)
	t.Root = mem.Addr(tmp)
}

func (src *stackSource) walkVM(w *jit.W, vm *VM) {
	// vmid, gicShadowOwn, and gicShadow are excluded: they are assigned
	// exactly once, when the VM's Stage-2 tables are built (initVMS2: at
	// attach for a nested VM; for the host's VM at its first entry or,
	// ahead of any SMP run, in smpSetup), and never change for a live *VM
	// afterwards. A recording that builds the tables cannot promote (the
	// new tables change the walk's shape word). Checkpoint restore
	// rewrites them but also resets the engine.
	var tmp uint64
	walkTables(w, vm.s2)
	if vm.virtio != nil {
		dev := vm.virtio
		// The backend cursors (echo) are excluded: every drain that could
		// move them reads the ring through tapped memory. Its presence is
		// pinned together with the device's.
		shape := uint64(1)
		if dev.echo != nil {
			shape |= 2
		}
		w.Shape(shape)
		w.Word(&dev.queuePFN)
		w.Word(&dev.queueNum)
		tmp = dev.status | uint64(dev.intStatus)<<32
		w.Word(&tmp)
		dev.status = tmp & 0xffffffff
		dev.intStatus = uint32(tmp >> 32)
	} else {
		w.Shape(0)
	}
	for _, v := range vm.VCPUs {
		walkVCPU(w, v)
	}
}

// walkVCPU pins one vCPU's replay-relevant state.
func walkVCPU(w *jit.W, v *VCPU) {
	if v.EL1.jt == nil || v.VEL2.jt == nil || v.VirtEL1.jt == nil || v.PageCtx.jt == nil {
		w.Fail()
		return
	}
	tmp := uint64(v.dirtyLRs)
	if v.InVEL2 {
		tmp |= 1 << 8
	}
	if v.Online {
		tmp |= 1 << 9
	}
	w.Word(&tmp)
	v.dirtyLRs = int(tmp & 0xff)
	v.InVEL2 = tmp&(1<<8) != 0
	v.Online = tmp&(1<<9) != 0
	w.Word(&v.x0)
	w.IntSlice(&v.pendingVIRQ)
	if v.pendingEntry != nil {
		w.Fail()
		return
	}
	walkTables(w, v.shadowS2)
	if v.Guest == nil {
		w.Shape(0)
		return
	}
	g := v.Guest
	// Guest presence and its irq-handler presence share a shape word.
	shape := uint64(1)
	if g.irqHandler != nil {
		shape |= 2
	}
	w.Shape(shape)
	walkTables(w, g.s1)
	if g.s1 != nil {
		tmp = uint64(g.s1.Mem.(*stage1Backing).next)
		w.Word(&tmp)
		g.s1.Mem.(*stage1Backing).next = mem.Addr(tmp)
	}
	if g.vq != nil {
		w.Shape(1)
		tmp = uint64(g.vq.Ring.Base)
		w.Word(&tmp)
		g.vq.Ring.Base = mem.Addr(tmp)
	} else {
		w.Shape(0)
	}
}

// InstallJIT attaches a trace-JIT engine to the stack: every core
// dispatches through it, and its poison taps cover memory, the UART, and
// the stage-2 TLB. threshold <= 0 selects jit.DefaultThreshold. Install
// after assembly (the walk's identity tables are built from the final
// topology); repeated calls are no-ops.
func (s *Stack) InstallJIT(threshold int) {
	if s.jit != nil {
		return
	}
	src := &stackSource{s: s, host: s.Host, gh: s.GuestHyp, gh2: s.GuestHyp2}
	src.hypList = s.hyps()
	src.sinks = append(src.sinks, nil)
	src.vcpus = append(src.vcpus, nil)
	for _, h := range s.hyps() {
		for _, vm := range h.VMs {
			for _, v := range vm.VCPUs {
				src.vcpus = append(src.vcpus, v)
				if v.Guest != nil {
					src.sinks = append(src.sinks, v.Guest)
				}
			}
		}
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
	eng = jit.New(threshold, []jit.Source{src}, hooks)
	// The saved register contexts are tracked by read/write set instead of
	// being walked: they are large and a trap sequence touches few words.
	// Their single access funnel (Context.Get/Set and the batched
	// sequences over file()) notifies the engine during recordings; the
	// walk fails over any context created after this registration pass.
	track := func(ctx *Context) {
		ctx.jt = eng.Tap(eng.RegisterFile(ctx.regs[:]))
	}
	for _, h := range s.hyps() {
		for i := range h.hostCtxs {
			track(&h.hostCtxs[i])
		}
		for _, vm := range h.VMs {
			for _, v := range vm.VCPUs {
				track(&v.EL1)
				track(&v.VEL2)
				track(&v.VirtEL1)
				track(&v.PageCtx)
			}
		}
	}
	for _, c := range m.CPUs {
		c.SetJIT(eng)
	}
	s.jit = eng
}

// JIT returns the stack's trace-JIT engine, or nil.
func (s *Stack) JIT() *jit.Engine { return s.jit }

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
