package jit

import (
	"testing"

	"github.com/nevesim/neve/internal/trace"
)

// fakeMachine is the smallest machine the engine can accelerate: two
// register files and a queue under read/write-set tracking, a structural
// generation, a one-core clock, and a TLB of canned translations.
type fakeMachine struct {
	words [3]uint64
	gen   uint64

	file    [16]uint64
	queue   []int
	clock   ClockState
	tlb     map[uint64]Probe // keyed by IA
	tlbGen  uint64
	tlbHits uint64

	probeCalls int

	col  *trace.Collector
	eng  *Engine
	tap  *FileTap
	wtap *FileTap
	qtap *QueueTap
}

// read and write access the words file through its tap, the way a model
// file's accessors do.
func (m *fakeMachine) read(i int) uint64 {
	m.wtap.Read(i)
	return m.words[i]
}

func (m *fakeMachine) write(i int, v uint64) {
	m.wtap.Write(i)
	m.words[i] = v
}

func newFake() *fakeMachine {
	m := &fakeMachine{
		tlb: make(map[uint64]Probe),
		col: trace.NewCollector(false),
	}
	hooks := Hooks{
		NumCPUs:    1,
		ClockState: func(int) ClockState { return m.clock },
		AdvanceClock: func(_ int, d ClockDelta) {
			m.clock.Cycles += d.DCycles
			for l := range d.DLevel {
				m.clock.Level[l] += d.DLevel[l]
			}
			if d.NeedGap {
				m.clock.LastAttributed = m.clock.Cycles - d.PostGap
			}
		},
		TLBProbe: func(_ uint16, ia uint64) (uint64, uint64, bool) {
			m.probeCalls++
			p, ok := m.tlb[ia]
			return p.PA, p.Perm, ok
		},
		TLBAddHits: func(n uint64) { m.tlbHits += n },
		TLBGen:     func() uint64 { return m.tlbGen },
		ClockGap:   func(int) uint64 { return m.clock.Cycles - m.clock.LastAttributed },
		Gen:        func() uint64 { return m.gen },
		Trace:      m.col,
		Arm:        func() {},
		Disarm:     func() {},
	}
	m.eng = New(hooks)
	m.tap = m.eng.Tap(m.eng.RegisterFile(m.file[:]))
	m.wtap = m.eng.Tap(m.eng.RegisterFile(m.words[:]))
	m.qtap = m.eng.RegisterQueue(&m.queue)
	return m
}

// trap drives one dispatch of cause exc, running handler interpreted on a
// miss or under a recording, exactly as the CPU trap path does.
func (m *fakeMachine) trap(exc uint64, handler func() uint64) (uint64, Status) {
	var ew [ExcWords]uint64
	ew[0] = exc
	v, st := m.eng.Dispatch(0, &ew)
	if st == Hit {
		return v, st
	}
	rv := handler()
	if st == Record {
		m.eng.EndRecord(rv)
	}
	return rv, st
}

// promote drives cause exc through its defaultThreshold-1 interpreted
// sightings and then the recorded one.
func (m *fakeMachine) promote(t *testing.T, exc uint64, handler func() uint64) {
	t.Helper()
	for i := 1; i < defaultThreshold; i++ {
		if _, st := m.trap(exc, handler); st != Miss {
			t.Fatalf("cause %d sighting %d: status %v, want Miss", exc, i, st)
		}
	}
	if _, st := m.trap(exc, handler); st != Record {
		t.Fatalf("cause %d: threshold sighting did not record", exc)
	}
}

func wantStats(t *testing.T, e *Engine, hits, misses, bails uint64) {
	t.Helper()
	if got := e.Stats(); got != (trace.JITStats{Hits: hits, Misses: misses, Bailouts: bails}) {
		t.Fatalf("stats = %+v, want hits=%d misses=%d bailouts=%d", got, hits, misses, bails)
	}
}

// TestPromotionThreshold pins the promotion policy: threshold-1 misses,
// one recorded (still interpreted) dispatch, then hits.
func TestPromotionThreshold(t *testing.T) {
	m := newFake()
	handler := func() uint64 {
		m.write(1, 42)
		m.clock.Cycles += 100
		return 7
	}
	for i := 0; i < defaultThreshold-1; i++ {
		if _, st := m.trap(1, handler); st != Miss {
			t.Fatalf("dispatch %d: status %v, want Miss", i, st)
		}
	}
	if _, st := m.trap(1, handler); st != Record {
		t.Fatalf("threshold dispatch: not Record")
	}
	if causes, ops := m.eng.Entries(); causes != 1 || ops != 1 {
		t.Fatalf("after promotion: %d causes, %d ops", causes, ops)
	}
	pre := m.clock.Cycles
	v, st := m.trap(1, handler)
	if st != Hit || v != 7 {
		t.Fatalf("replay: status %v val %d, want Hit 7", st, v)
	}
	if m.clock.Cycles != pre+100 {
		t.Fatalf("replay charged %d cycles, want 100", m.clock.Cycles-pre)
	}
	wantStats(t, m.eng, 1, defaultThreshold, 0)
}

// TestGuardMismatchBails pins bailout semantics: a read-set word that
// differs from the recording's precondition runs the trap interpreted, and
// the divergent state is promoted as a second chain variant that then hits.
func TestGuardMismatchBails(t *testing.T) {
	m := newFake()
	handler := func() uint64 {
		m.read(2)
		return 1
	}
	m.promote(t, 2, handler)
	if _, st := m.trap(2, handler); st != Hit {
		t.Fatalf("baseline replay did not hit")
	}
	m.words[2] = 0xbeef
	m.promote(t, 2, handler)
	wantStats(t, m.eng, 1, defaultThreshold, defaultThreshold)
	if _, st := m.trap(2, handler); st != Hit {
		t.Fatalf("second variant did not hit")
	}
	m.words[2] = 0
	if _, st := m.trap(2, handler); st != Hit {
		t.Fatalf("first variant no longer hits")
	}
	if causes, ops := m.eng.Entries(); causes != 1 || ops != 2 {
		t.Fatalf("chain: %d causes, %d ops, want 1/2", causes, ops)
	}
}

// TestRestoreDelta pins the write set: a super-op whose sequence changed
// tracked state writes the recorded post-state back on replay.
func TestRestoreDelta(t *testing.T) {
	m := newFake()
	handler := func() uint64 {
		m.write(0, 77)
		return 0
	}
	for i := 0; i < defaultThreshold; i++ {
		m.words[0] = 3
		m.trap(3, handler) // the last sighting records pre 3 -> post 77
	}
	m.words[0] = 3
	if _, st := m.trap(3, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if m.words[0] != 77 {
		t.Fatalf("replay left words[0]=%d, want 77", m.words[0])
	}
}

// TestFileTracking pins read/write-set tracking: a super-op guards exactly
// the file words its recording read and restores exactly the words it
// wrote. Reading back a word the recording wrote adds no guard.
func TestFileTracking(t *testing.T) {
	m := newFake()
	m.file[5] = 11
	handler := func() uint64 {
		m.tap.Read(5)
		v := m.file[5]
		m.file[9] = v * 2
		m.tap.Write(9)
		m.tap.Read(9)
		return 0
	}
	m.promote(t, 4, handler)
	m.file[9] = 0 // self-written: not guarded
	if _, st := m.trap(4, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if m.file[9] != 22 {
		t.Fatalf("replay left file[9]=%d, want 22", m.file[9])
	}
	m.file[5] = 12 // violate the read guard
	if _, st := m.trap(4, handler); st == Hit {
		t.Fatalf("replay hit despite a stale read-set value")
	}
	if m.eng.Stats().Bailouts != 1 {
		t.Fatalf("read-set mismatch was not a bailout")
	}
	// An untracked word is invisible to the guard by design: only accesses
	// funneled through the tap participate.
	m.file[5] = 11
	m.file[3] = 999
	if _, st := m.trap(4, handler); st != Hit {
		t.Fatalf("untracked word perturbed the guard")
	}
}

// TestUnregisteredFilePoisons pins the poison rule: an access reported
// against FileID 0 (an unregistered store) makes the recording
// non-promotable, and poisonLimit failures retire the cause.
func TestUnregisteredFilePoisons(t *testing.T) {
	m := newFake()
	handler := func() uint64 {
		m.eng.FileRead(0, 1)
		return 0
	}
	for i := 1; i < defaultThreshold; i++ {
		m.trap(5, handler)
	}
	for i := 0; i < poisonLimit; i++ {
		if _, st := m.trap(5, handler); st != Record {
			t.Fatalf("attempt %d: status %v, want Record", i, st)
		}
		if _, ops := m.eng.Entries(); ops != 0 {
			t.Fatalf("poisoned recording was promoted")
		}
	}
	if _, st := m.trap(5, handler); st != Miss {
		t.Fatalf("cause not retired after %d poisoned recordings", poisonLimit)
	}
}

// TestPoisonHook pins Engine.Poison (what the memory/device/TLB taps call).
func TestPoisonHook(t *testing.T) {
	m := newFake()
	handler := func() uint64 {
		m.eng.Poison()
		return 0
	}
	m.promote(t, 6, handler)
	if _, ops := m.eng.Entries(); ops != 0 {
		t.Fatalf("poisoned recording was promoted")
	}
}

// TestProbes pins TLB-probe validation and the generation short-circuit:
// an unchanged generation skips re-probing entirely, a bumped generation
// re-validates, and a changed translation bails.
func TestProbes(t *testing.T) {
	m := newFake()
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	handler := func() uint64 {
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		return 0
	}
	m.promote(t, 7, handler)
	if _, st := m.trap(7, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if m.probeCalls != 0 {
		t.Fatalf("unchanged generation still re-probed (%d calls)", m.probeCalls)
	}
	if m.tlbHits != 1 {
		t.Fatalf("replay back-filled %d TLB hits, want 1", m.tlbHits)
	}
	m.tlbGen++ // generation moved, mapping identical: revalidate, then hit
	if _, st := m.trap(7, handler); st != Hit {
		t.Fatalf("replay did not hit after benign generation bump")
	}
	if m.probeCalls != 1 {
		t.Fatalf("bumped generation probed %d times, want 1", m.probeCalls)
	}
	if _, st := m.trap(7, handler); st != Hit || m.probeCalls != 1 {
		t.Fatalf("generation re-stamp did not restore the short-circuit")
	}
	m.tlbGen++
	m.tlb[0x1000] = Probe{PA: 0x3000, Perm: 3} // translation changed
	if _, st := m.trap(7, handler); st == Hit {
		t.Fatalf("replay hit over a changed translation")
	}
}

// TestProbeMissPoisons: a recording that missed in the TLB (took a table
// walk) is not promotable.
func TestProbeMissPoisons(t *testing.T) {
	m := newFake()
	handler := func() uint64 {
		m.eng.LogProbe(1, 0x9000, 0, 0, false)
		return 0
	}
	m.promote(t, 8, handler)
	if _, ops := m.eng.Entries(); ops != 0 {
		t.Fatalf("TLB-missing recording was promoted")
	}
}

// TestClockGuard pins the attribution-gap guard: a super-op recorded at
// one cycles-since-attribution gap bails at any other.
func TestClockGuard(t *testing.T) {
	m := newFake()
	handler := func() uint64 {
		m.clock.Cycles += 50
		m.clock.Level[1] += m.clock.Cycles - m.clock.LastAttributed
		m.clock.LastAttributed = m.clock.Cycles
		return 0
	}
	// Every sighting starts at gap 10; the last one records.
	for i := 0; i < defaultThreshold; i++ {
		m.clock = ClockState{Cycles: 100, LastAttributed: 90}
		m.trap(9, handler)
	}
	m.clock = ClockState{Cycles: 300, LastAttributed: 290}
	if _, st := m.trap(9, handler); st != Hit {
		t.Fatalf("replay did not hit at the recorded gap")
	}
	want := ClockState{Cycles: 350, Level: [8]uint64{0, 60}, LastAttributed: 350}
	if m.clock != want {
		t.Fatalf("replayed clock %+v, want %+v", m.clock, want)
	}
	m.clock = ClockState{Cycles: 500, LastAttributed: 480} // gap 20
	if _, st := m.trap(9, handler); st == Hit {
		t.Fatalf("replay hit at the wrong gap")
	}
}

// TestCounterDelta pins counter replay: a hit applies exactly the
// increments the interpreted sequence produced.
func TestCounterDelta(t *testing.T) {
	m := newFake()
	ev := trace.Event{Reason: trace.ReasonHVC, Aux: 3}
	handler := func() uint64 {
		m.col.Trap(ev)
		m.col.Trap(ev)
		m.col.Trap(trace.Event{Reason: trace.ReasonSysReg, Aux: 9})
		return 0
	}
	m.promote(t, 10, handler) // the recording logs 3 increments
	if _, st := m.trap(10, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	runs := uint64(defaultThreshold + 1) // interpreted sightings + the replay
	if got := m.col.Total(); got != 3*runs {
		t.Fatalf("total traps counted = %d, want %d (3 per run)", got, 3*runs)
	}
	if got := m.col.Count(trace.ReasonHVC); got != 2*runs {
		t.Fatalf("HVC count = %d, want %d", got, 2*runs)
	}
	if got := m.col.KeyCount(ev.Key()); got != 2*runs {
		t.Fatalf("per-key count = %d, want %d", got, 2*runs)
	}
}

// TestNestedDispatchMisses: while a recording is in flight, inner
// dispatches miss so their effects land inside the outer recording.
func TestNestedDispatchMisses(t *testing.T) {
	m := newFake()
	inner := func() uint64 { return 0 }
	handler := func() uint64 {
		if _, st := m.trap(12, inner); st != Miss {
			t.Fatalf("nested dispatch was not a forced miss")
		}
		return 0
	}
	m.promote(t, 11, handler)
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("outer recording did not promote")
	}
}

// TestQuiesceAndReset pins the snapshot-restore contract: Quiesce aborts
// an in-flight recording without charging the cause and keeps the
// compiled cache; Reset drops cache and statistics.
func TestQuiesceAndReset(t *testing.T) {
	m := newFake()
	handler := func() uint64 { return 0 }
	m.promote(t, 13, handler)
	for i := 1; i < defaultThreshold; i++ {
		m.trap(14, handler)
	}
	var ew [ExcWords]uint64
	ew[0] = 14
	if _, st := m.eng.Dispatch(0, &ew); st != Record {
		t.Fatalf("second cause did not start recording")
	}
	if !m.eng.Recording() {
		t.Fatalf("Recording() false with a capture in flight")
	}
	m.eng.Quiesce()
	if m.eng.Recording() {
		t.Fatalf("Quiesce left the recording armed")
	}
	if _, st := m.trap(13, handler); st != Hit {
		t.Fatalf("Quiesce dropped the compiled cache")
	}
	// The aborted recording must not count against cause 14's poison
	// budget: it still gets promoted on its next sighting.
	if _, st := m.trap(14, handler); st != Record {
		t.Fatalf("quiesced cause did not re-record")
	}
	m.eng.Reset()
	if causes, ops := m.eng.Entries(); causes != 0 || ops != 0 {
		t.Fatalf("Reset kept %d causes / %d ops", causes, ops)
	}
	wantStats(t, m.eng, 0, 0, 0)
	if _, st := m.trap(13, handler); st == Hit {
		t.Fatalf("replay hit after Reset")
	}
}

// TestStatsExclusive: exactly one stats field increments per dispatch.
func TestStatsExclusive(t *testing.T) {
	m := newFake()
	handler := func() uint64 { return 0 }
	dispatches := uint64(0)
	for i := 0; i < 5; i++ {
		m.trap(15, handler)
		dispatches++
	}
	m.gen++
	m.trap(15, handler) // bailout
	dispatches++
	s := m.eng.Stats()
	if s.Hits+s.Misses+s.Bailouts != dispatches {
		t.Fatalf("stats %+v do not sum to %d dispatches", s, dispatches)
	}
}

// TestReplayHitNoAlloc is the 0-alloc gate on the replay hit path: a
// dispatch that replays a super-op — including tracked file writes, a
// queue guard and refill, TLB hit back-fill, clock advance, and a counter
// delta — performs no heap allocation.
func TestReplayHitNoAlloc(t *testing.T) {
	m := newFake()
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	m.file[5] = 11
	handler := func() uint64 {
		m.tap.Read(5)
		m.file[9] = m.file[5] * 2
		m.tap.Write(9)
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		m.col.Trap(trace.Event{Reason: trace.ReasonHVC, Aux: 3})
		m.write(0, 77)
		m.qtap.Write()
		m.queue = append(m.queue[:0], 4, 5)
		m.clock.Cycles += 50
		return 5
	}
	for i := 0; i < defaultThreshold; i++ {
		m.words[0] = 3
		m.queue = append(m.queue[:0], 1)
		m.trap(16, handler) // the last sighting records
	}
	m.words[0] = 3
	m.queue = append(m.queue[:0], 1)
	if _, st := m.trap(16, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	var ew [ExcWords]uint64
	ew[0] = 16
	failed := false
	avg := testing.AllocsPerRun(200, func() {
		m.words[0] = 3
		m.queue = append(m.queue[:0], 1)
		if _, st := m.eng.Dispatch(0, &ew); st != Hit {
			failed = true
		}
	})
	if failed {
		t.Fatalf("dispatch stopped hitting under AllocsPerRun")
	}
	if avg != 0 {
		t.Fatalf("replay hit path allocates (%v allocs/run)", avg)
	}
}

// TestMoveToFront pins the chain policy: after a variant further down the
// chain hits, it is consulted first on the next dispatch. Observable via
// probe-call counts: bumping the TLB generation before every dispatch
// forces probe revalidation, so only the front variant's probes are
// checked before a hit.
func TestMoveToFront(t *testing.T) {
	m := newFake()
	stateA := Probe{PA: 0x2000, Perm: 3}
	stateB := Probe{PA: 0x3000, Perm: 3}
	handler := func() uint64 {
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		return 0
	}
	trap := func() Status {
		m.tlbGen++
		_, st := m.trap(17, handler)
		return st
	}
	m.tlb[0x1000] = stateA
	for i := 0; i < defaultThreshold; i++ {
		trap() // variant A
	}
	m.tlb[0x1000] = stateB
	for i := 0; i < defaultThreshold; i++ {
		trap() // variant B (chain front after promotion)
	}
	if st := trap(); st != Hit {
		t.Fatalf("variant B did not hit")
	}
	m.tlb[0x1000] = stateA
	if st := trap(); st != Hit {
		t.Fatalf("variant A did not hit")
	}
	// A hit and moved to the front: a dispatch in state A now probes once
	// (A's probes), not twice (B's then A's). The variants differ only in
	// their probes, so probe order is the discriminator.
	calls := m.probeCalls
	if st := trap(); st != Hit {
		t.Fatalf("variant A did not stay hot")
	}
	if m.probeCalls-calls != 1 {
		t.Fatalf("front variant dispatch probed %d times, want 1", m.probeCalls-calls)
	}
}

// TestGenerationGuard pins the structural generation: a super-op replays
// only under the generation it was recorded under, and a recording during
// which the generation moves is not promoted.
func TestGenerationGuard(t *testing.T) {
	m := newFake()
	handler := func() uint64 { return 0 }
	m.promote(t, 18, handler)
	if _, st := m.trap(18, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	m.gen++
	if _, st := m.trap(18, handler); st == Hit {
		t.Fatalf("replay hit across a generation change")
	}
	m.promote(t, 19, func() uint64 {
		m.gen++ // builds a lazily created object
		return 0
	})
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("a recording that moved the generation was promoted")
	}
}

// TestQueueTracking pins queue guards: the first access guards the whole
// contents, a mutation commits the final contents, and a queue observed
// with different contents bails.
func TestQueueTracking(t *testing.T) {
	m := newFake()
	handler := func() uint64 {
		m.qtap.Read()
		if len(m.queue) == 0 {
			return 0
		}
		m.qtap.Write()
		m.queue = m.queue[1:]
		return 1
	}
	for i := 0; i < defaultThreshold; i++ {
		m.queue = append(m.queue[:0], 7, 8)
		m.trap(20, handler)
	}
	m.queue = append(m.queue[:0], 7, 8)
	if v, st := m.trap(20, handler); st != Hit || v != 1 {
		t.Fatalf("replay: status %v val %d, want Hit 1", st, v)
	}
	if len(m.queue) != 1 || m.queue[0] != 8 {
		t.Fatalf("replay left queue %v, want [8]", m.queue)
	}
	m.queue = append(m.queue[:0], 7, 9)
	if _, st := m.trap(20, handler); st == Hit {
		t.Fatalf("replay hit over different queue contents")
	}
}

// TestFlagsFile pins in-flight flags: a recording that consumes a record
// it did not create, or leaves one in flight, is not promoted; one that
// creates and consumes a record is.
func TestFlagsFile(t *testing.T) {
	m := newFake()
	var flag [1]uint64
	tap := m.eng.Tap(m.eng.RegisterFlags(flag[:]))
	set := func(v uint64) { tap.Write(0); flag[0] = v }
	consume := func() {
		tap.Read(0)
		if flag[0] != 0 {
			set(0)
		}
	}
	m.promote(t, 21, func() uint64 { set(1); consume(); return 0 })
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("create-and-consume recording was not promoted")
	}
	m.promote(t, 22, func() uint64 { set(1); return 0 })
	m.promote(t, 23, func() uint64 { flag[0] = 1; consume(); return 0 })
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("a recording that left or consumed a foreign record was promoted")
	}
}
