// Package jit is the trace-JIT layer: it records hot trap/world-switch
// sequences as they execute interpreted, promotes causes that recur above a
// threshold into super-ops — a precomputed aggregate state delta (register
// writes, cycle charges, trace-counter increments) validated against the
// preconditions the recording consumed — and replays them with a single
// dispatch instead of N interpreted traps.
//
// Model state reaches the engine only through taps. A tracked file's
// accessors report word reads and writes through a FileTap, a tracked
// queue's through a QueueTap, so a super-op guards exactly its read set
// and commits exactly its write set. Facts no tracked word expresses (the
// creation of lazily built objects, coarse device reconfiguration) move
// one structural generation (Hooks.Gen), compared once per attempt.
// Everything else is poisoned: memory, device, and TLB mutation hooks
// armed for the duration of a recording mark it non-promotable, as does
// any access to an unregistered file. A super-op therefore replays if and
// only if every tracked word and queue it read still holds what it read,
// the generation is the one it was recorded under, and every stage-2 TLB
// translation it consumed is still cached with the same result (the
// probes). On any mismatch the trap runs interpreted with zero behavioral
// difference.
//
// Every guard is a value guard. A register copy between tracked files (the
// batched world-switch sequences, context-to-context bookkeeping moves) is
// reported as what it is at the storage level: a read of the source, which
// guards the value unless the recording wrote that word first, and a write
// of the destination, whose final value promotion harvests as a constant.
package jit

import (
	"slices"

	"github.com/nevesim/neve/internal/trace"
)

// ExcWords is the number of packed words identifying a trap cause; the
// (cpu, cause) pair keys the recorder.
const ExcWords = 4

// Status is the outcome of a dispatch.
type Status int

const (
	// Miss: no super-op replayed; the caller runs the trap interpreted.
	Miss Status = iota
	// Record: run interpreted under recording; the caller must call
	// EndRecord (or AbortRecord on panic) when the handler returns.
	Record
	// Hit: a super-op replayed; the caller uses the returned value and
	// skips the handler entirely.
	Hit
)

const (
	// defaultThreshold is how many sightings of a trap cause trigger a
	// recording.
	defaultThreshold = 2
	// poisonLimit retires a trap cause after this many failed recordings;
	// causes that keep touching untracked state are never worth retrying.
	poisonLimit = 4
	// maxChain bounds the super-op variants kept per cause; move-to-front
	// keeps the matching variant's guard check first, so a longer chain
	// costs little per dispatch, but a cause needing still more variants
	// is effectively data-dependent.
	maxChain = 8
)

// Probe records one stage-2 TLB translation consumed during a recording.
// Replay re-probes and bails unless the cached result is identical.
type Probe struct {
	VMID uint16
	IA   uint64
	PA   uint64
	Perm uint64
}

// ClockState snapshots one core's cycle accounting.
type ClockState struct {
	Cycles         uint64
	Level          [8]uint64
	LastAttributed uint64
}

// ClockDelta is the recorded cycle effect of a super-op on one core.
//
// NeedGap distinguishes two shapes. When the recording ran an attribution
// point on the core, the per-level charge depends on the gap between the
// core's cycle counter and its last attribution point, so replay guards
// that the gap equals PreGap and then restores the recorded post-gap. When
// the core was only charged raw cycles (a peer receiving an IPI wire
// charge), the delta is translation-invariant and applies with no guard.
type ClockDelta struct {
	CPU     int
	NeedGap bool
	PreGap  uint64
	DCycles uint64
	DLevel  [8]uint64
	PostGap uint64
}

// Hooks connects the engine to the machine it accelerates.
type Hooks struct {
	NumCPUs      int
	ClockState   func(cpu int) ClockState
	AdvanceClock func(cpu int, d ClockDelta)
	// TLBProbe looks up a stage-2 translation without counting or
	// mutating; TLBAddHits back-fills the hit statistics a replay skipped.
	TLBProbe   func(vmid uint16, ia uint64) (pa, perm uint64, ok bool)
	TLBAddHits func(n uint64)
	// TLBGen returns the TLB's mutation generation; an unchanged
	// generation lets replay skip re-validating probes.
	TLBGen func() uint64
	// ClockGap returns cycles-since-last-attribution for a core: the only
	// clock fact the replay guard needs, fetched without copying the full
	// ClockState.
	ClockGap func(cpu int) uint64
	// Gen returns the structural generation. It moves whenever a fact no
	// tracked word expresses changes; replay requires the generation its
	// recording ran under, and a recording during which it moves is not
	// promoted.
	Gen   func() uint64
	Trace *trace.Collector
	// Arm and Disarm install and remove the poison taps on memory,
	// devices, and the TLB for the duration of a recording.
	Arm    func()
	Disarm func()
}

// FileID names a register file registered for read/write-set tracking;
// zero means "no file" and poisons any recording that touches it.
type FileID int32

// fileWord is one tracked-file guard or delta entry: in a read set, val
// is the value the recording read (guarded on replay); in a write set,
// val is the value the recording left behind (restored on replay).
type fileWord struct {
	f   FileID
	idx int32
	val uint64
}

// ptrWord is a promoted fileWord: the (file, index) pair resolved to the
// word's address. Registered files never move — their storage is
// allocated once with the stack topology, and snapshot restore writes
// into it rather than replacing it — so promotion resolves each tracked
// word once and replay pays a single dereference.
type ptrWord struct {
	p   *uint64
	val uint64
}

// maxFileWords bounds a tracked file so the first-access bitmaps are two
// fixed words (arm.NumSysRegs fits).
const maxFileWords = 128

// RegisterFile registers a register file for read/write-set tracking: the
// file's accessors report reads and writes through a FileTap during
// recordings, so a super-op guards exactly the words it read and restores
// exactly the words it wrote. Every access path to the file must funnel
// through the tap. Registering a file again returns its existing ID.
func (e *Engine) RegisterFile(f []uint64) FileID {
	return e.register(f, false)
}

// RegisterFlags registers a file of in-flight flags: words that are zero
// except while a record the model keeps outside tracked state (a queued
// exit, say) is pending. A promotable recording reads every flag it
// observes as zero and leaves every flag it writes zero, so a super-op
// neither consumes a record it did not create nor leaves one in flight.
func (e *Engine) RegisterFlags(f []uint64) FileID {
	return e.register(f, true)
}

func (e *Engine) register(f []uint64, flags bool) FileID {
	if len(f) == 0 || len(f) > maxFileWords {
		panic("jit: register file size unsupported for tracking")
	}
	if id := e.fileBases[&f[0]]; id != 0 {
		return id
	}
	e.files = append(e.files, f)
	e.flags = append(e.flags, flags)
	id := FileID(len(e.files))
	if e.fileBases == nil {
		e.fileBases = make(map[*uint64]FileID)
	}
	e.fileBases[&f[0]] = id
	e.rdSeen = append(e.rdSeen, [2]uint64{})
	e.wrSeen = append(e.wrSeen, [2]uint64{})
	return id
}

// FileByBase resolves a registered file by the address of its first word
// (how the batched context sequences identify the store they move), or
// zero for an unregistered array.
func (e *Engine) FileByBase(p *uint64) FileID { return e.fileBases[p] }

// Tap returns the read/write notifier for a registered file.
func (e *Engine) Tap(id FileID) *FileTap { return &FileTap{e: e, id: id} }

// FileTap is the per-file access notifier a tracked file's accessors
// call. The nil receiver is valid and free, so files carry a tap pointer
// that stays nil until an engine is installed.
type FileTap struct {
	e  *Engine
	id FileID
}

// Read reports a read of word idx.
func (t *FileTap) Read(idx int) {
	if t != nil && t.e.rec != nil {
		t.read(idx)
	}
}

// Write reports a write of word idx.
func (t *FileTap) Write(idx int) {
	if t != nil && t.e.rec != nil {
		t.write(idx)
	}
}

// read and write are the recording-only slow paths, kept out of line so
// that the taps stay cheap enough to inline into every model accessor.
//
//go:noinline
func (t *FileTap) read(idx int) { t.e.fileAccess(t.id, idx, false) }

//go:noinline
func (t *FileTap) write(idx int) { t.e.fileAccess(t.id, idx, true) }

// FileRead records a tracked-file read during a recording: the first
// read of a word the recording has not already written guards the value
// being read. Later reads, and reads of self-written words, are derived
// from state already guarded or produced by the recording itself.
func (e *Engine) FileRead(f FileID, idx int) { e.fileAccess(f, idx, false) }

// FileWrite records a tracked-file write during a recording; the final
// value is harvested from the file when the recording is promoted.
func (e *Engine) FileWrite(f FileID, idx int) { e.fileAccess(f, idx, true) }

func (e *Engine) fileAccess(f FileID, idx int, write bool) {
	rec := e.rec
	if rec == nil || rec.poisoned {
		return
	}
	if f <= 0 {
		rec.poisoned = true
		return
	}
	i := int(f) - 1
	word, bit := idx>>6, uint64(1)<<uint(idx&63)
	switch {
	case write && e.wrSeen[i][word]&bit == 0:
		e.wrSeen[i][word] |= bit
		rec.fwrites = append(rec.fwrites, fileWord{f, int32(idx), 0})
	case !write && (e.rdSeen[i][word]|e.wrSeen[i][word])&bit == 0:
		e.rdSeen[i][word] |= bit
		rec.freads = append(rec.freads, fileWord{f, int32(idx), e.files[i][idx]})
	}
}

// RegisterQueue registers a variable-length interrupt queue for tracking
// at whole-queue granularity and returns its notifier. Registering a queue
// again returns a notifier for the existing registration.
func (e *Engine) RegisterQueue(q *[]int) *QueueTap {
	i := slices.Index(e.queues, q)
	if i < 0 {
		i = len(e.queues)
		e.queues = append(e.queues, q)
		e.qseen = append(e.qseen, 0)
	}
	return &QueueTap{e: e, id: int32(i)}
}

// QueueTap is a tracked queue's access notifier; like FileTap, the nil
// receiver is valid and free. The first access in a recording guards the
// queue's whole contents; a mutation puts its final contents in the write
// set, and replay refills the queue's backing array with them.
type QueueTap struct {
	e  *Engine
	id int32
}

// Read reports that the queue's contents are about to be observed.
func (t *QueueTap) Read() {
	if t != nil && t.e.rec != nil {
		t.access(qGuarded)
	}
}

// Write reports that the queue is about to be mutated. Every queue
// mutation depends on the prior contents, so it guards them as well.
func (t *QueueTap) Write() {
	if t != nil && t.e.rec != nil {
		t.access(qWritten)
	}
}

// access is the out-of-line slow path, as for FileTap.
//
//go:noinline
func (t *QueueTap) access(st uint8) { t.e.queueAccess(t.id, st) }

// Per-recording queue states (Engine.qseen), in order: a written queue is
// also guarded.
const (
	qGuarded uint8 = 1 + iota
	qWritten
)

// queueVal is a queue guard or delta: the queue and its contents.
type queueVal struct {
	q    *[]int
	vals []int
}

func (e *Engine) queueAccess(id int32, st uint8) {
	rec, seen := e.rec, e.qseen[id]
	if rec.poisoned || seen >= st {
		return
	}
	if seen == 0 {
		rec.qreads = append(rec.qreads, queueVal{e.queues[id], slices.Clone(*e.queues[id])})
	}
	if st == qWritten {
		rec.qwrites = append(rec.qwrites, id)
	}
	e.qseen[id] = st
}

// superOp is the compiled form of one recorded trap sequence.
type superOp struct {
	exc [ExcWords]uint64
	// gen is the structural generation the recording ran under.
	gen     uint64
	freads  []ptrWord
	fwrites []ptrWord
	qreads  []queueVal
	qwrites []queueVal
	probes  []Probe
	// tlbGen is the TLB generation at which probes were last known valid;
	// replay re-validates them only when the live generation differs.
	tlbGen uint64
	clocks []ClockDelta
	tdelta *trace.CounterDelta
	retVal uint64
	next   *superOp
}

// entry is the recorder's per-(cpu, cause) bookkeeping.
type entry struct {
	count  int
	poison int
	ops    *superOp
	nops   int
}

// recording is one in-flight capture. The engine owns a single one and
// reuses its lists across recordings; promotion copies what a super-op
// keeps.
type recording struct {
	exc      [ExcWords]uint64
	ent      *entry
	gen      uint64
	freads   []fileWord
	fwrites  []fileWord
	qreads   []queueVal
	qwrites  []int32
	probes   []Probe
	poisoned bool
}

// Engine is the recorder, promotion policy, super-op cache, and replay
// engine. It is not safe for concurrent use; the machine model steps cores
// deterministically on one goroutine.
type Engine struct {
	hooks   Hooks
	entries map[uint64]*entry
	// rec is the active recording (&scratch while one is in flight).
	rec     *recording
	scratch recording
	stats   trace.JITStats
	// files holds the tracked register files; FileID i is files[i-1], and
	// flags[i-1] marks a file of in-flight flags. rdSeen/wrSeen are the
	// per-file per-recording first-access bitmaps, engine-owned scratch
	// cleared when a recording begins.
	files     [][]uint64
	flags     []bool
	fileBases map[*uint64]FileID
	rdSeen    [][2]uint64
	wrSeen    [][2]uint64
	// queues holds the tracked queues; qseen is their recording state.
	queues []*[]int
	qseen  []uint8
	// marks is scratch for the recording's starting clocks.
	marks []ClockState
}

// New returns an engine over the given hooks; every hook is required.
func New(hooks Hooks) *Engine {
	return &Engine{
		hooks:   hooks,
		entries: make(map[uint64]*entry),
		marks:   make([]ClockState, hooks.NumCPUs),
	}
}

// hashExc is FNV-1a over the cause words and the dispatching core.
func hashExc(cpu int, exc *[ExcWords]uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range exc {
		h = (h ^ w) * 1099511628211
	}
	return (h ^ uint64(cpu)) * 1099511628211
}

// Dispatch is the per-trap entry point, called after trap entry accounting
// and before the EL2 vector runs. Exactly one stats field increments per
// call. While a recording is active, nested dispatches miss immediately so
// their effects land inside the outer recording.
func (e *Engine) Dispatch(cpu int, exc *[ExcWords]uint64) (uint64, Status) {
	if e.rec != nil {
		e.stats.Misses++
		return 0, Miss
	}
	h := hashExc(cpu, exc)
	ent := e.entries[h]
	if ent == nil {
		ent = &entry{}
		e.entries[h] = ent
	}
	matched := false
	var prev *superOp
	for op := ent.ops; op != nil; prev, op = op, op.next {
		if op.exc != *exc {
			continue
		}
		matched = true
		if v, ok := e.tryReplay(op); ok {
			if prev != nil {
				// Move-to-front: the variant that matches the live state
				// tends to keep matching, and every variant ahead of it
				// costs a failed guard check per dispatch.
				prev.next = op.next
				op.next = ent.ops
				ent.ops = op
			}
			e.stats.Hits++
			return v, Hit
		}
	}
	if matched {
		e.stats.Bailouts++
	} else {
		e.stats.Misses++
	}
	if ent.poison >= poisonLimit || ent.nops >= maxChain {
		return 0, Miss
	}
	ent.count++
	if ent.count >= defaultThreshold {
		e.beginRecord(exc, ent)
		return 0, Record
	}
	return 0, Miss
}

// tryReplay validates op's preconditions and, only if every one holds,
// commits the recorded state delta. Validation is ordered cheap-first —
// and, between chain variants of one cause, most-discriminating-first:
// the tracked-file read set is where world-switch variants differ — and
// mutates nothing, so a bailout leaves the machine untouched.
func (e *Engine) tryReplay(op *superOp) (uint64, bool) {
	if e.hooks.Gen() != op.gen {
		return 0, false
	}
	for i := range op.freads {
		g := &op.freads[i]
		if *g.p != g.val {
			return 0, false
		}
	}
	for i := range op.qreads {
		g := &op.qreads[i]
		if !slices.Equal(*g.q, g.vals) {
			return 0, false
		}
	}
	for i := range op.clocks {
		d := &op.clocks[i]
		if d.NeedGap && e.hooks.ClockGap(d.CPU) != d.PreGap {
			return 0, false
		}
	}
	if len(op.probes) > 0 {
		if gen := e.hooks.TLBGen(); gen != op.tlbGen {
			for i := range op.probes {
				p := &op.probes[i]
				pa, perm, ok := e.hooks.TLBProbe(p.VMID, p.IA)
				if !ok || pa != p.PA || perm != p.Perm {
					return 0, false
				}
			}
			op.tlbGen = gen
		}
	}
	// Commit: from here on divergence is a bug, not a bailout.
	for i := range op.fwrites {
		fw := &op.fwrites[i]
		*fw.p = fw.val
	}
	for i := range op.qwrites {
		qw := &op.qwrites[i]
		*qw.q = append((*qw.q)[:0], qw.vals...)
	}
	for i := range op.clocks {
		e.hooks.AdvanceClock(op.clocks[i].CPU, op.clocks[i])
	}
	if len(op.probes) > 0 {
		e.hooks.TLBAddHits(uint64(len(op.probes)))
	}
	if op.tdelta != nil {
		e.hooks.Trace.ApplyCounterDelta(op.tdelta)
	}
	return op.retVal, true
}

// beginRecord starts capturing the in-flight trap: it snapshots the
// structural generation, clocks, and trace counters, and arms the poison
// taps.
func (e *Engine) beginRecord(exc *[ExcWords]uint64, ent *entry) {
	rec := &e.scratch
	*rec = recording{exc: *exc, ent: ent, gen: e.hooks.Gen(), freads: rec.freads[:0],
		fwrites: rec.fwrites[:0], qreads: rec.qreads[:0], qwrites: rec.qwrites[:0], probes: rec.probes[:0]}
	clear(e.rdSeen)
	clear(e.wrSeen)
	clear(e.qseen)
	for i := 0; i < e.hooks.NumCPUs; i++ {
		e.marks[i] = e.hooks.ClockState(i)
	}
	e.hooks.Trace.BeginCounterLog()
	e.rec = rec
	e.hooks.Arm()
}

// EndRecord finishes the active recording after the interpreted handler
// returned retVal, promoting it to a super-op unless it was poisoned or its
// effects are not expressible as a guarded state delta.
func (e *Engine) EndRecord(retVal uint64) {
	rec := e.rec
	if rec == nil {
		return
	}
	e.rec = nil
	e.hooks.Disarm()
	// The counter log must be disarmed on every path out of this function;
	// EndCounterLog below reads it before this runs.
	defer e.hooks.Trace.AbortCounterLog()
	if rec.poisoned || e.hooks.Gen() != rec.gen || !e.flagsClear(rec) {
		rec.ent.poison++
		return
	}
	var clocks []ClockDelta
	for i := 0; i < e.hooks.NumCPUs; i++ {
		now := e.hooks.ClockState(i)
		pre := e.marks[i]
		if now == pre {
			continue
		}
		if now.Cycles < pre.Cycles || now.LastAttributed < pre.LastAttributed {
			// A rewound clock (rolled-back context sequence) is not
			// expressible as an additive delta.
			rec.ent.poison++
			return
		}
		d := ClockDelta{CPU: i, DCycles: now.Cycles - pre.Cycles}
		for l := range d.DLevel {
			d.DLevel[l] = now.Level[l] - pre.Level[l]
		}
		if now.LastAttributed != pre.LastAttributed || d.DLevel != [8]uint64{} {
			d.NeedGap = true
			d.PreGap = pre.Cycles - pre.LastAttributed
			d.PostGap = now.Cycles - now.LastAttributed
		}
		clocks = append(clocks, d)
	}
	td := new(trace.CounterDelta)
	if !e.hooks.Trace.EndCounterLog(td) {
		rec.ent.poison++
		return
	}
	freads := make([]ptrWord, len(rec.freads))
	for i := range rec.freads {
		g := &rec.freads[i]
		freads[i] = ptrWord{p: &e.files[g.f-1][g.idx], val: g.val}
	}
	fwrites := make([]ptrWord, len(rec.fwrites))
	for i := range rec.fwrites {
		fw := &rec.fwrites[i]
		p := &e.files[fw.f-1][fw.idx]
		fwrites[i] = ptrWord{p: p, val: *p}
	}
	qwrites := make([]queueVal, len(rec.qwrites))
	for i, id := range rec.qwrites {
		qwrites[i] = queueVal{q: e.queues[id], vals: slices.Clone(*e.queues[id])}
	}
	op := &superOp{
		exc:     rec.exc,
		gen:     rec.gen,
		freads:  freads,
		fwrites: fwrites,
		qreads:  slices.Clone(rec.qreads),
		qwrites: qwrites,
		probes:  slices.Clone(rec.probes),
		clocks:  clocks,
		retVal:  retVal,
		next:    rec.ent.ops,
		// A promoted recording saw no TLB mutation (mutation poisons), so
		// the generation now is the one its probes were valid under.
		tlbGen: e.hooks.TLBGen(),
	}
	if !td.Empty() {
		op.tdelta = td
	}
	rec.ent.ops = op
	rec.ent.nops++
	rec.ent.count = 0
}

// flagsClear reports whether the recording observed every in-flight flag
// (RegisterFlags) it read as zero and left every flag it wrote zero.
func (e *Engine) flagsClear(rec *recording) bool {
	for _, g := range rec.freads {
		if e.flags[g.f-1] && g.val != 0 {
			return false
		}
	}
	for _, w := range rec.fwrites {
		if e.flags[w.f-1] && e.files[w.f-1][w.idx] != 0 {
			return false
		}
	}
	return true
}

// AbortRecord discards the active recording (handler panicked).
func (e *Engine) AbortRecord() {
	rec := e.rec
	if rec == nil {
		return
	}
	e.Quiesce()
	rec.ent.poison++
}

// Poison marks the active recording non-promotable; the poison taps and
// subsystems call it when state outside the tracked set is touched.
func (e *Engine) Poison() {
	if e.rec != nil {
		e.rec.poisoned = true
	}
}

// Recording reports whether a capture is in flight.
func (e *Engine) Recording() bool { return e.rec != nil }

// LogProbe records one stage-2 TLB lookup observed during a recording. A
// miss poisons: replay cannot reproduce a table walk.
func (e *Engine) LogProbe(vmid uint16, ia, pa, perm uint64, hit bool) {
	rec := e.rec
	if rec == nil || rec.poisoned {
		return
	}
	if !hit {
		rec.poisoned = true
		return
	}
	rec.probes = append(rec.probes, Probe{VMID: vmid, IA: ia, PA: pa, Perm: perm})
}

// Quiesce aborts any in-flight recording and keeps the compiled cache;
// snapshot restore calls it. A restore swaps state under an active
// recording's feet invisibly to the poison taps, so the capture must be
// discarded (without charging the cause — the recording did nothing
// wrong). The compiled super-ops survive: their guards are pure value
// preconditions re-validated against live state on every dispatch, so an
// op whose preconditions no longer hold bails to the interpreter, while
// one whose preconditions recur after the restore — the entire point of
// a warm-boot sweep re-entering the same states — replays soundly.
func (e *Engine) Quiesce() {
	if e.rec == nil {
		return
	}
	e.rec = nil
	e.hooks.Disarm()
	e.hooks.Trace.AbortCounterLog()
}

// Reset drops the super-op cache and statistics, aborting any in-flight
// recording first: full invalidation, for callers that change the rules
// the cache was compiled under (platform rebuilds, tests).
func (e *Engine) Reset() {
	e.Quiesce()
	clear(e.entries)
	e.stats = trace.JITStats{}
}

// Stats returns the dispatch counters.
func (e *Engine) Stats() trace.JITStats { return e.stats }

// Entries returns the number of distinct trap causes seen and the number of
// compiled super-ops, for diagnostics and tests.
func (e *Engine) Entries() (causes, ops int) {
	causes = len(e.entries)
	for _, ent := range e.entries {
		ops += ent.nops
	}
	return causes, ops
}
