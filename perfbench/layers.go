package main

import (
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/trace"
	"github.com/nevesim/neve/internal/workload"
)

// trapReasons are the trace reasons reported as trace.traps.<reason>.n.
var trapReasons = []trace.Reason{
	trace.ReasonSysReg, trace.ReasonERet, trace.ReasonHVC, trace.ReasonStage2Fault,
	trace.ReasonIRQ, trace.ReasonWFx, trace.ReasonSMC, trace.ReasonTimer, trace.ReasonMMIO,
	trace.ReasonVMCall, trace.ReasonVMRead, trace.ReasonVMWrite, trace.ReasonVMPtrLd,
	trace.ReasonVMResume, trace.ReasonEPTViolation, trace.ReasonExtInt, trace.ReasonMSRAccess,
}

// counters is a point-in-time reading of a platform's layer counters:
// simulated traps by reason, trace-JIT dispatch outcomes and the Stage-2
// TLB.
type counters struct {
	arm       bool
	traps     uint64
	byReason  []uint64
	jit       trace.JITStats
	tlbHits   uint64
	tlbMisses uint64
}

func readCounters(p platform.Platform) counters {
	c := counters{traps: p.Trace().Total(), jit: p.JITStats(), byReason: make([]uint64, len(trapReasons))}
	for i, r := range trapReasons {
		c.byReason[i] = p.Trace().Count(r)
	}
	if s := p.ARM(); s != nil {
		c.arm = true
		c.tlbHits, c.tlbMisses = s.M.S2.TLB.Stats()
	}
	return c
}

// addSince adds the counter increments since before into m and returns
// the cell's trap count.
func (c counters) addSince(before counters, m passMetrics) uint64 {
	traps := c.traps - before.traps
	m.add("trace.traps.n", float64(traps))
	for i, r := range trapReasons {
		m.add("trace.traps."+r.String()+".n", float64(c.byReason[i]-before.byReason[i]))
	}
	if c.arm {
		m.add("trace.arm_traps", float64(traps))
	}
	addJIT(m, c.jit.Sub(before.jit))
	m.add("mmu.s2_tlb.hits.n", float64(c.tlbHits-before.tlbHits))
	m.add("mmu.s2_tlb.misses.n", float64(c.tlbMisses-before.tlbMisses))
	return traps
}

func addJIT(m passMetrics, js trace.JITStats) {
	m.add("jit.hits.n", float64(js.Hits))
	m.add("jit.misses.n", float64(js.Misses))
	m.add("jit.bailouts.n", float64(js.Bailouts))
	m.add("jit.evictions.n", float64(js.Evictions))
}

// derive fills in a pass's ratio metrics from its sums.
func (m passMetrics) derive(kvmNS int64) {
	m["jit.hit_ratio"] = ratio(m["jit.hits.n"], m["jit.hits.n"]+m["jit.misses.n"]+m["jit.bailouts.n"])
	m["mmu.s2_tlb.hit_ratio"] = ratio(m["mmu.s2_tlb.hits.n"], m["mmu.s2_tlb.hits.n"]+m["mmu.s2_tlb.misses.n"])
	m["kvm.ns_per_trap"] = ratio(float64(kvmNS), m["trace.arm_traps"])
}

// Span names of the guest-side calls, per architecture.
type guestSpans struct{ work, hypercall, deviceRead, sendIPI int32 }

func newGuestSpans(t *tracer, layer string) guestSpans {
	return guestSpans{
		work:       t.name(layer + ".work"),
		hypercall:  t.name(layer + ".hypercall"),
		deviceRead: t.name(layer + ".device_read"),
		sendIPI:    t.name(layer + ".send_ipi"),
	}
}

// tracedGuest is the workload.API the traced run hands to
// workload.Profile.Run: every call into the stack's guest context is a
// span of the kvm (ARM) or x86 layer.
type tracedGuest struct {
	g platform.Guest
	t *tracer
	n guestSpans
}

func (w *tracedGuest) Work(n uint64) {
	s := w.t.begin(w.n.work)
	w.g.Work(n)
	w.t.endTo(s)
}

func (w *tracedGuest) Hypercall() {
	s := w.t.begin(w.n.hypercall)
	w.g.Hypercall()
	w.t.endTo(s)
}

func (w *tracedGuest) DeviceRead(off uint64) uint64 {
	s := w.t.begin(w.n.deviceRead)
	v := w.g.DeviceRead(off)
	w.t.endTo(s)
	return v
}

func (w *tracedGuest) SendIPI(target, intid int) {
	s := w.t.begin(w.n.sendIPI)
	w.g.SendIPI(target, intid)
	w.t.endTo(s)
}

func (w *tracedGuest) OnIRQ(fn func(intid int)) { w.g.OnIRQ(fn) }

// tracedPlatform is the workload.Platform of the traced run: device
// interrupts and peer service are spans of the platform layer.
type tracedPlatform struct {
	p                    workload.Platform
	t                    *tracer
	injectIRQ, servePeer int32
}

func (w *tracedPlatform) InjectDeviceIRQ() {
	s := w.t.begin(w.injectIRQ)
	w.p.InjectDeviceIRQ()
	w.t.endTo(s)
}

func (w *tracedPlatform) ServicePeer() {
	s := w.t.begin(w.servePeer)
	w.p.ServicePeer()
	w.t.endTo(s)
}

func (w *tracedPlatform) HasPeer() bool { return w.p.HasPeer() }

// pool is the traced run's warm-boot cache, the public-API mirror of the
// bench harness's: one booted platform per configuration (cells run one
// at a time), restored to its boot checkpoint for each later cell, with
// every platform-layer call a span. With a store, a configuration's first
// boot decodes the stored checkpoint instead of snapshotting.
type pool struct {
	t                                           *tracer
	store                                       *platform.CheckpointStore
	entries                                     map[string]*poolEntry
	build, storeLoad, decode, snapshot, restore int32
}

type poolEntry struct {
	p  platform.Platform
	cp *platform.Checkpoint
}

func newPool(t *tracer, store *platform.CheckpointStore) *pool {
	return &pool{
		t: t, store: store, entries: map[string]*poolEntry{},
		build: t.name("platform.build"), storeLoad: t.name("platform.store_load"),
		decode: t.name("platform.decode"), snapshot: t.name("platform.snapshot"),
		restore: t.name("platform.restore"),
	}
}

// acquire returns a platform at boot state for spec, with its watchdog
// budget reset.
func (pl *pool) acquire(spec platform.Spec) (platform.Platform, error) {
	key := spec.Axes()
	if e, ok := pl.entries[key]; ok {
		s := pl.t.begin(pl.restore)
		e.p.Restore(e.cp)
		pl.t.endTo(s)
		e.p.Watchdog().Reset()
		return e.p, nil
	}
	s := pl.t.begin(pl.build)
	p, err := platform.Build(spec)
	pl.t.endTo(s)
	if err != nil {
		return nil, err
	}
	var cp *platform.Checkpoint
	if pl.store != nil {
		s = pl.t.begin(pl.storeLoad)
		payload, ok := pl.store.Load(spec)
		pl.t.endTo(s)
		if ok {
			s = pl.t.begin(pl.decode)
			cp, err = platform.DecodeCheckpoint(p, payload)
			pl.t.endTo(s)
			if err != nil {
				cp = nil
			}
		}
	}
	if cp == nil {
		s = pl.t.begin(pl.snapshot)
		cp = p.Snapshot()
		pl.t.endTo(s)
	}
	pl.entries[key] = &poolEntry{p: p, cp: cp}
	p.Watchdog().Reset()
	return p, nil
}

// drop discards a platform poisoned by a fault.
func (pl *pool) drop(spec platform.Spec) { delete(pl.entries, spec.Axes()) }
