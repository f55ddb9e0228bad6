package jit

import (
	"testing"

	"github.com/nevesim/neve/internal/trace"
)

// fakeMachine is the smallest machine the engine can accelerate: a few
// walked words, one shape word, a register file under read/write-set
// tracking, a one-core clock, and a TLB of canned translations.
type fakeMachine struct {
	words [3]uint64
	shape uint64

	file    [16]uint64
	clock   ClockState
	tlb     map[uint64]Probe // keyed by IA
	tlbGen  uint64
	tlbHits uint64

	probeCalls int
	gapCalls   int

	col *trace.Collector
	eng *Engine
	tap *FileTap
}

func (m *fakeMachine) WalkJIT(w *W) {
	w.Shape(m.shape)
	w.Words(m.words[:])
}

// opts tweak the hook set a test engine is built with.
type fakeOpts struct {
	noTLBGen   bool // force the per-probe revalidation path
	noClockGap bool // force the full-ClockState guard path
}

func newFake(t *testing.T, threshold int, o fakeOpts) *fakeMachine {
	t.Helper()
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
		Trace:      m.col,
	}
	if !o.noTLBGen {
		hooks.TLBGen = func() uint64 { return m.tlbGen }
	}
	if !o.noClockGap {
		hooks.ClockGap = func(int) uint64 {
			m.gapCalls++
			return m.clock.Cycles - m.clock.LastAttributed
		}
	}
	m.eng = New(threshold, []Source{m}, hooks)
	m.tap = m.eng.Tap(m.eng.RegisterFile(m.file[:]))
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

func wantStats(t *testing.T, e *Engine, hits, misses, bails uint64) {
	t.Helper()
	if got := e.Stats(); got != (trace.JITStats{Hits: hits, Misses: misses, Bailouts: bails}) {
		t.Fatalf("stats = %+v, want hits=%d misses=%d bailouts=%d", got, hits, misses, bails)
	}
}

// TestPromotionThreshold pins the promotion policy: threshold-1 misses,
// one recorded (still interpreted) dispatch, then hits.
func TestPromotionThreshold(t *testing.T) {
	m := newFake(t, 3, fakeOpts{})
	handler := func() uint64 {
		m.words[1] = 42
		m.clock.Cycles += 100
		return 7
	}
	for i := 0; i < 2; i++ {
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
	wantStats(t, m.eng, 1, 3, 0)
}

// TestGuardMismatchBails pins bailout semantics: walked state that differs
// from the recording's precondition runs the trap interpreted, and the
// divergent state is promoted as a second chain variant that then hits.
func TestGuardMismatchBails(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 { return 1 }
	m.trap(2, handler) // Record
	if _, st := m.trap(2, handler); st != Hit {
		t.Fatalf("baseline replay did not hit")
	}
	m.words[2] = 0xbeef // outside anything the handler touches
	if _, st := m.trap(2, handler); st != Record {
		t.Fatalf("guard mismatch did not fall back to recording")
	}
	wantStats(t, m.eng, 1, 1, 1)
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

// TestRestoreDelta pins the restore walk: a super-op whose sequence
// changed walked state writes the recorded post-state back on replay.
func TestRestoreDelta(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.words[0] = 77
		return 0
	}
	m.words[0] = 3
	m.trap(3, handler) // Record: pre 3 -> post 77
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
// wrote.
func TestFileTracking(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	m.file[5] = 11
	handler := func() uint64 {
		m.tap.Read(5)
		v := m.file[5]
		m.file[9] = v * 2
		m.tap.Write(9)
		return 0
	}
	m.trap(4, handler) // Record
	m.file[9] = 0
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
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.eng.FileRead(0, 1)
		return 0
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
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.eng.Poison()
		return 0
	}
	m.trap(6, handler)
	if _, ops := m.eng.Entries(); ops != 0 {
		t.Fatalf("poisoned recording was promoted")
	}
}

// TestProbes pins TLB-probe validation and the generation short-circuit:
// an unchanged generation skips re-probing entirely, a bumped generation
// re-validates, and a changed translation bails.
func TestProbes(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	handler := func() uint64 {
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		return 0
	}
	m.trap(7, handler) // Record
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
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.eng.LogProbe(1, 0x9000, 0, 0, false)
		return 0
	}
	m.trap(8, handler)
	if _, ops := m.eng.Entries(); ops != 0 {
		t.Fatalf("TLB-missing recording was promoted")
	}
}

// TestClockGuard pins the attribution-gap guard: a super-op recorded at
// one cycles-since-attribution gap bails at any other, under both the
// ClockGap hook and the full-ClockState fallback.
func TestClockGuard(t *testing.T) {
	for _, o := range []fakeOpts{{}, {noClockGap: true}} {
		m := newFake(t, 1, o)
		handler := func() uint64 {
			m.clock.Cycles += 50
			m.clock.Level[1] += m.clock.Cycles - m.clock.LastAttributed
			m.clock.LastAttributed = m.clock.Cycles
			return 0
		}
		m.clock = ClockState{Cycles: 100, LastAttributed: 90} // gap 10
		m.trap(9, handler)                                    // Record
		m.clock = ClockState{Cycles: 300, LastAttributed: 290}
		if _, st := m.trap(9, handler); st != Hit {
			t.Fatalf("noClockGap=%v: replay did not hit at the recorded gap", o.noClockGap)
		}
		want := ClockState{Cycles: 350, Level: [8]uint64{0, 60}, LastAttributed: 350}
		if m.clock != want {
			t.Fatalf("noClockGap=%v: replayed clock %+v, want %+v", o.noClockGap, m.clock, want)
		}
		m.clock = ClockState{Cycles: 500, LastAttributed: 480} // gap 20
		if _, st := m.trap(9, handler); st == Hit {
			t.Fatalf("noClockGap=%v: replay hit at the wrong gap", o.noClockGap)
		}
	}
}

// TestCounterDelta pins counter replay: a hit applies exactly the
// increments the interpreted sequence produced.
func TestCounterDelta(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	ev := trace.Event{Reason: trace.ReasonHVC, Aux: 3}
	handler := func() uint64 {
		m.col.Trap(ev)
		m.col.Trap(ev)
		m.col.Trap(trace.Event{Reason: trace.ReasonSysReg, Aux: 9})
		return 0
	}
	m.trap(10, handler) // Record: 3 increments logged
	if _, st := m.trap(10, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	if got := m.col.Total(); got != 6 {
		t.Fatalf("total traps counted = %d, want 6 (3 interpreted + 3 replayed)", got)
	}
	if got := m.col.Count(trace.ReasonHVC); got != 4 {
		t.Fatalf("HVC count = %d, want 4", got)
	}
	if got := m.col.KeyCount(ev.Key()); got != 4 {
		t.Fatalf("per-key count = %d, want 4", got)
	}
}

// TestNestedDispatchMisses: while a recording is in flight, inner
// dispatches miss so their effects land inside the outer recording.
func TestNestedDispatchMisses(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	inner := func() uint64 { return 0 }
	handler := func() uint64 {
		if _, st := m.trap(12, inner); st != Miss {
			t.Fatalf("nested dispatch was not a forced miss")
		}
		return 0
	}
	m.trap(11, handler)
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("outer recording did not promote")
	}
}

// TestQuiesceAndReset pins the snapshot-restore contract: Quiesce aborts
// an in-flight recording without charging the cause and keeps the
// compiled cache; Reset drops cache and statistics.
func TestQuiesceAndReset(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 { return 0 }
	m.trap(13, handler) // Record + promote
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
	m := newFake(t, 2, fakeOpts{})
	handler := func() uint64 { return 0 }
	dispatches := uint64(0)
	for i := 0; i < 5; i++ {
		m.trap(15, handler)
		dispatches++
	}
	m.words[2] = 1
	m.trap(15, handler) // bailout
	dispatches++
	s := m.eng.Stats()
	if s.Hits+s.Misses+s.Bailouts != dispatches {
		t.Fatalf("stats %+v do not sum to %d dispatches", s, dispatches)
	}
}

// TestReplayHitNoAlloc is the 0-alloc gate on the replay hit path: a
// dispatch that replays a super-op — including a restore walk, tracked
// file writes, TLB hit back-fill, clock advance, and a counter delta —
// performs no heap allocation.
func TestReplayHitNoAlloc(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	m.file[5] = 11
	handler := func() uint64 {
		m.tap.Read(5)
		m.file[9] = m.file[5] * 2
		m.tap.Write(9)
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		m.col.Trap(trace.Event{Reason: trace.ReasonHVC, Aux: 3})
		m.words[0] = 77
		m.clock.Cycles += 50
		return 5
	}
	m.words[0] = 3
	m.trap(16, handler) // Record
	m.words[0] = 3
	if _, st := m.trap(16, handler); st != Hit {
		t.Fatalf("replay did not hit")
	}
	var ew [ExcWords]uint64
	ew[0] = 16
	failed := false
	avg := testing.AllocsPerRun(200, func() {
		m.words[0] = 3
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

// TestParamMoveReplays pins the parameter-slot contract: a declared copy
// (CopyWord) promotes to a replayed move instead of a value guard, so the
// same super-op hits for any live source value and writes the live value,
// not the recorded one.
func TestParamMoveReplays(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		return 0
	}
	m.file[2] = 100
	m.trap(20, handler) // Record
	m.file[2] = 200
	if _, st := m.trap(20, handler); st != Hit {
		t.Fatalf("parameterized replay did not hit on a changed source (status %v)", st)
	}
	if m.file[8] != 200 {
		t.Fatalf("replay wrote file[8]=%d, want the live source value 200", m.file[8])
	}
	if causes, ops := m.eng.Entries(); causes != 1 || ops != 1 {
		t.Fatalf("changed source grew the chain: %d causes, %d ops", causes, ops)
	}
}

// TestParamMoveImmChain pins derived forms and transitive resolution: a
// copy with an immediate, and a copy whose source is itself move-derived,
// both resolve to the external origin with immediates summed.
func TestParamMoveImmChain(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	fid := m.eng.FileByBase(&m.file[0])
	handler := func() uint64 {
		m.file[8] = m.file[2] + 5
		m.eng.FileCopy(fid, 2, fid, 8, 5)
		m.file[9] = m.file[8] + 7
		m.eng.FileCopy(fid, 8, fid, 9, 7)
		return 0
	}
	m.file[2] = 10
	m.trap(21, handler) // Record
	m.file[2] = 1000
	if _, st := m.trap(21, handler); st != Hit {
		t.Fatalf("chained-copy replay did not hit on a changed origin")
	}
	if m.file[8] != 1005 || m.file[9] != 1012 {
		t.Fatalf("replay wrote file[8]=%d file[9]=%d, want 1005/1012", m.file[8], m.file[9])
	}
}

// TestCopyFromWrittenDegrades: a copy whose source the recording already
// plain-wrote carries a recorder-computed value, so it degrades to a
// constant write and replays independent of live state.
func TestCopyFromWrittenDegrades(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.file[2] = 42
		m.tap.Write(2)
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		return 0
	}
	m.trap(22, handler) // Record
	m.file[2], m.file[8] = 7, 7
	if _, st := m.trap(22, handler); st != Hit {
		t.Fatalf("constant-degraded replay did not hit")
	}
	if m.file[2] != 42 || m.file[8] != 42 {
		t.Fatalf("replay left file[2]=%d file[8]=%d, want the harvested 42/42", m.file[2], m.file[8])
	}
}

// TestCopyFromGuardedSource: an observing read before the copy pins the
// source, so the copy degrades to a constant and the value guard still
// bails on a changed source.
func TestCopyFromGuardedSource(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		m.tap.Read(2)
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		return 0
	}
	m.file[2] = 5
	m.trap(23, handler) // Record
	if _, st := m.trap(23, handler); st != Hit {
		t.Fatalf("replay at the recorded value did not hit")
	}
	m.file[2] = 6
	if _, st := m.trap(23, handler); st == Hit {
		t.Fatalf("copy from a value-guarded source replayed over a changed value")
	}
}

// TestParamObservedUpgrades pins the upgrade rule: once the sequence
// observes a parameter — reading the source itself or a word derived from
// it — the external origin becomes a value guard, and replay bails when
// the origin moves.
func TestParamObservedUpgrades(t *testing.T) {
	for _, tc := range []struct {
		name    string
		readIdx int
	}{
		{"read-derived-word", 8},
		{"read-source-word", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newFake(t, 1, fakeOpts{})
			handler := func() uint64 {
				CopyWord(m.tap, 2, m.tap, 8)
				m.file[8] = m.file[2]
				m.tap.Read(tc.readIdx)
				return 0
			}
			m.file[2] = 5
			m.trap(30, handler) // Record
			m.file[2] = 5
			if _, st := m.trap(30, handler); st != Hit {
				t.Fatalf("replay at the recorded origin value did not hit")
			}
			m.file[2] = 6
			if _, st := m.trap(30, handler); st == Hit {
				t.Fatalf("observed parameter replayed over a changed origin")
			}
		})
	}
}

// TestCopyWordUntapped pins CopyWord's degradation: with one side untapped
// the declared copy falls back to a guarding read, which stays sound (the
// replay bails when the source changes).
func TestCopyWordUntapped(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		CopyWord(m.tap, 2, nil, 0)
		return 0
	}
	m.file[2] = 5
	m.trap(24, handler) // Record
	m.file[2] = 6
	if _, st := m.trap(24, handler); st == Hit {
		t.Fatalf("untapped-destination copy replayed over a changed source")
	}
}

// TestEvictSuperseded pins chain eviction: promoting a parameterized
// variant drops an older single-value variant it covers, and the surviving
// variant hits for every source value including the evicted one's.
func TestEvictSuperseded(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	plain := func() uint64 {
		m.tap.Read(2)
		m.file[8] = m.file[2]
		m.tap.Write(8)
		return 0
	}
	param := func() uint64 {
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		return 0
	}
	m.file[2] = 10
	m.trap(27, plain) // variant A: value guard file[2]==10
	m.file[2] = 11
	if _, st := m.trap(27, param); st != Record {
		t.Fatalf("changed source did not bail into a new recording")
	}
	if ev := m.eng.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions=%d, want the stale single-value variant evicted", ev)
	}
	if _, ops := m.eng.Entries(); ops != 1 {
		t.Fatalf("chain holds %d ops, want only the parameterized variant", ops)
	}
	for _, v := range []uint64{10, 11, 12} {
		m.file[2] = v
		if _, st := m.trap(27, param); st != Hit {
			t.Fatalf("parameterized variant did not hit at source=%d", v)
		}
		if m.file[8] != v {
			t.Fatalf("replay wrote file[8]=%d, want %d", m.file[8], v)
		}
	}
}

// TestParamReplayNoAlloc extends the 0-alloc gate to the parameterized
// path: a replay that runs moves allocates nothing.
func TestParamReplayNoAlloc(t *testing.T) {
	m := newFake(t, 1, fakeOpts{})
	handler := func() uint64 {
		CopyWord(m.tap, 2, m.tap, 8)
		m.file[8] = m.file[2]
		m.clock.Cycles += 50
		return 3
	}
	m.file[2] = 1
	m.trap(28, handler) // Record
	if _, st := m.trap(28, handler); st != Hit {
		t.Fatalf("parameterized replay did not hit")
	}
	var ew [ExcWords]uint64
	ew[0] = 28
	src := uint64(1)
	failed := false
	avg := testing.AllocsPerRun(200, func() {
		src++
		m.file[2] = src
		if _, st := m.eng.Dispatch(0, &ew); st != Hit {
			failed = true
		}
	})
	if failed {
		t.Fatalf("dispatch stopped hitting under AllocsPerRun")
	}
	if avg != 0 {
		t.Fatalf("parameterized replay path allocates (%v allocs/run)", avg)
	}
	if m.file[8] != src {
		t.Fatalf("last replay wrote file[8]=%d, want %d", m.file[8], src)
	}
}

// TestMoveToFront pins the chain policy: after a variant further down the
// chain hits, it is consulted first on the next dispatch. Observable via
// probe-call counts: only the front variant's probes are checked before a
// hit when generations force revalidation.
func TestMoveToFront(t *testing.T) {
	m := newFake(t, 1, fakeOpts{noTLBGen: true})
	m.tlb[0x1000] = Probe{PA: 0x2000, Perm: 3}
	handler := func() uint64 {
		p := m.tlb[0x1000]
		m.eng.LogProbe(1, 0x1000, p.PA, p.Perm, true)
		return 0
	}
	m.words[0] = 1
	m.trap(17, handler) // variant A
	m.words[0] = 2
	m.trap(17, handler) // variant B (chain front after promotion)
	if _, st := m.trap(17, handler); st != Hit {
		t.Fatalf("variant B did not hit")
	}
	m.words[0] = 1
	if _, st := m.trap(17, handler); st != Hit {
		t.Fatalf("variant A did not hit")
	}
	// A hit and moved to the front: a dispatch in state A now probes once
	// (A's probes), not twice (B's then A's). The file-read and clock
	// guards are empty here, so probe order is the discriminator.
	calls := m.probeCalls
	if _, st := m.trap(17, handler); st != Hit {
		t.Fatalf("variant A did not stay hot")
	}
	if m.probeCalls-calls != 1 {
		t.Fatalf("front variant dispatch probed %d times, want 1", m.probeCalls-calls)
	}
}
