// Package jit is the trace-JIT layer: it records hot trap/world-switch
// sequences as they execute interpreted, promotes causes that recur above a
// threshold into super-ops — a precomputed aggregate state delta (register
// writes, cycle charges, trace-counter increments) validated against a guard
// vector of preconditions — and replays them with a single dispatch instead
// of N interpreted traps.
//
// Correctness rests on one invariant: a super-op replays if and only if the
// complete walked machine state equals the state the recording started from
// (the guard), every word of a tracked register file the recording read
// still holds the value it read (the file guard — large register files are
// not walked wholesale; their accesses funnel through FileRead/FileWrite
// taps, so a recording guards exactly its read set and restores exactly its
// write set), every stage-2 TLB translation the recording consumed is still
// cached with the same result (the probes), and nothing outside the walked
// or tracked state was touched during the recording (enforced by poisoning:
// memory, device, and TLB mutation hooks armed for the duration of a
// recording mark it non-promotable, as does any access to an unregistered
// file). On any guard mismatch the trap runs interpreted with zero
// behavioral difference.
//
// Every guard is a value guard. A register copy between tracked files (the
// batched world-switch sequences, context-to-context bookkeeping moves) is
// reported as what it is at the storage level: a read of the source, which
// guards the value unless the recording wrote that word first, and a write
// of the destination, whose final value promotion harvests as a constant.
package jit

import "github.com/nevesim/neve/internal/trace"

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
	// causes that keep touching unwalked state are never worth retrying.
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

// Source walks one subsystem's replay-relevant state. The same walk runs in
// capture, match, and restore mode; the walk order must be deterministic
// and any state-dependent branching must be pinned with Shape words.
type Source interface {
	WalkJIT(w *W)
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
	Trace    *trace.Collector
	// Arm and Disarm install and remove the poison taps on memory,
	// devices, and the TLB for the duration of a recording.
	Arm    func()
	Disarm func()
}

type walkMode int

const (
	modeCapture walkMode = iota
	modeMatch
	modeRestore
)

// W is the state walker. One walk implementation per subsystem serves all
// three uses: capture appends the live state to a vector, match compares
// the live state against a recorded vector, and restore writes a recorded
// vector back into the live state.
//
// Two cursors advance together: data words (values that may change across
// the super-op and are restored on replay) and shape words (structural
// facts — presence of lazily-created objects, configuration bits — that
// must be identical before and after the recorded sequence; promotion
// rejects recordings whose shape changed, which is what makes the restore
// walk structurally equal to the capture walks).
type W struct {
	mode   walkMode
	failed bool
	data   []uint64
	pos    int
	shapes []uint64
	spos   int
}

// Word walks one data word through p. In restore mode the recorded value is
// written back, so walks using a temporary must copy it out afterwards:
//
//	tmp := uint64(c.el); w.Word(&tmp); c.el = EL(tmp)
//
// is correct in all three modes.
func (w *W) Word(p *uint64) {
	if w.failed {
		return
	}
	switch w.mode {
	case modeCapture:
		w.data = append(w.data, *p)
	case modeMatch:
		if w.pos >= len(w.data) || w.data[w.pos] != *p {
			w.failed = true
			return
		}
		w.pos++
	case modeRestore:
		if w.pos >= len(w.data) {
			panic("jit: restore walk ran past the recorded state vector")
		}
		*p = w.data[w.pos]
		w.pos++
	}
}

// Words walks a contiguous run of data words in place.
func (w *W) Words(s []uint64) {
	if w.failed {
		return
	}
	switch w.mode {
	case modeCapture:
		w.data = append(w.data, s...)
	case modeMatch:
		if w.pos+len(s) > len(w.data) {
			w.failed = true
			return
		}
		rec := w.data[w.pos : w.pos+len(s)]
		for i := range s {
			if rec[i] != s[i] {
				w.failed = true
				return
			}
		}
		w.pos += len(s)
	case modeRestore:
		if w.pos+len(s) > len(w.data) {
			panic("jit: restore walk ran past the recorded state vector")
		}
		copy(s, w.data[w.pos:w.pos+len(s)])
		w.pos += len(s)
	}
}

// IntSlice walks a variable-length int slice: its length is a data word
// (lengths may legitimately differ between the pre and post state — e.g. a
// pending-interrupt queue drained by the sequence) followed by the
// elements. Restore reuses the slice's backing storage when it fits.
func (w *W) IntSlice(p *[]int) {
	if w.failed {
		return
	}
	switch w.mode {
	case modeCapture:
		w.data = append(w.data, uint64(len(*p)))
		for _, v := range *p {
			w.data = append(w.data, uint64(v))
		}
	case modeMatch:
		if w.pos >= len(w.data) || w.data[w.pos] != uint64(len(*p)) {
			w.failed = true
			return
		}
		w.pos++
		rec := w.data[w.pos:]
		for i, v := range *p {
			if rec[i] != uint64(v) {
				w.failed = true
				return
			}
		}
		w.pos += len(*p)
	case modeRestore:
		if w.pos >= len(w.data) {
			panic("jit: restore walk ran past the recorded state vector")
		}
		n := int(w.data[w.pos])
		w.pos++
		s := (*p)[:0]
		for i := 0; i < n; i++ {
			s = append(s, int(w.data[w.pos+i]))
		}
		w.pos += n
		*p = s
	}
}

// Shape walks one structural word. Capture records it, match guards it, and
// restore ignores it: promotion only succeeds when the pre and post shape
// vectors are identical, so after a successful match the live shape already
// equals the recorded one.
func (w *W) Shape(v uint64) {
	if w.failed {
		return
	}
	switch w.mode {
	case modeCapture:
		w.shapes = append(w.shapes, v)
	case modeMatch:
		if w.spos >= len(w.shapes) || w.shapes[w.spos] != v {
			w.failed = true
			return
		}
		w.spos++
	}
}

// Fail marks state the walk cannot express (an in-flight forwarding record,
// an unknown interrupt sink). Capture poisons the recording, match fails
// the guard; in restore mode it is unreachable after a successful match and
// panics to surface the soundness bug immediately.
func (w *W) Fail() {
	if w.failed {
		return
	}
	if w.mode == modeRestore {
		panic("jit: restore walk diverged after a successful guard match")
	}
	w.failed = true
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
// word's address. Registered files never move — they are fixed-size
// arrays embedded in stack topology structs, and snapshot restore
// assigns into them rather than replacing them — so promotion resolves
// each tracked word once and replay pays a single dereference.
type ptrWord struct {
	p   *uint64
	val uint64
}

// maxFileWords bounds a tracked file so the first-access bitmaps are two
// fixed words (arm.NumSysRegs fits).
const maxFileWords = 128

// RegisterFile registers a register file for read/write-set tracking.
// Instead of walking (and guarding) all of it on every dispatch, the
// file's accessors report reads and writes through a FileTap during
// recordings, so a super-op guards exactly the words it read and
// restores exactly the words it wrote. Every access path to the file
// must funnel through the tap; an access to a file that is not
// registered must poison (see FileTap and the walk sources).
func (e *Engine) RegisterFile(f []uint64) FileID {
	if len(f) == 0 || len(f) > maxFileWords {
		panic("jit: register file size unsupported for tracking")
	}
	e.files = append(e.files, f)
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
		t.e.FileRead(t.id, idx)
	}
}

// Write reports a write of word idx.
func (t *FileTap) Write(idx int) {
	if t != nil && t.e.rec != nil {
		t.e.FileWrite(t.id, idx)
	}
}

// FileRead records a tracked-file read during a recording: the first
// read of a word the recording has not already written guards the value
// being read. Later reads, and reads of self-written words, are derived
// from state already guarded or produced by the recording itself.
func (e *Engine) FileRead(f FileID, idx int) {
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
	if (e.rdSeen[i][word]|e.wrSeen[i][word])&bit != 0 {
		return
	}
	e.rdSeen[i][word] |= bit
	rec.freads = append(rec.freads, fileWord{f, int32(idx), e.files[i][idx]})
}

// FileWrite records a tracked-file write during a recording; the final
// value is harvested from the file when the recording is promoted.
func (e *Engine) FileWrite(f FileID, idx int) {
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
	if e.wrSeen[i][word]&bit != 0 {
		return
	}
	e.wrSeen[i][word] |= bit
	rec.fwrites = append(rec.fwrites, fileWord{f, int32(idx), 0})
}

// superOp is the compiled form of one recorded trap sequence.
type superOp struct {
	exc     [ExcWords]uint64
	guard   []uint64
	gshapes []uint64
	post    []uint64
	// walkClean marks post identical to guard: the sequence left every
	// walked word as it found it (common for pure-read traps), so replay
	// skips the restore walk — after a successful match it would only
	// write back the values already live.
	walkClean bool
	freads    []ptrWord
	fwrites   []ptrWord
	probes    []Probe
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

// recording is one in-flight capture.
type recording struct {
	exc      [ExcWords]uint64
	ent      *entry
	guard    []uint64
	gshapes  []uint64
	freads   []fileWord
	fwrites  []fileWord
	probes   []Probe
	poisoned bool
}

// Engine is the recorder, promotion policy, super-op cache, and replay
// engine. It is not safe for concurrent use; the machine model steps cores
// deterministically on one goroutine.
type Engine struct {
	sources []Source
	hooks   Hooks
	entries map[uint64]*entry
	rec     *recording
	stats   trace.JITStats
	// files holds the tracked register files; FileID i is files[i-1].
	// rdSeen/wrSeen are the per-file per-recording first-access bitmaps,
	// engine-owned scratch cleared when a recording begins.
	files     [][]uint64
	fileBases map[*uint64]FileID
	rdSeen    [][2]uint64
	wrSeen    [][2]uint64
	// w and marks are engine-owned scratch reused across dispatches so the
	// replay hit path performs no allocation.
	w     W
	marks []ClockState
	// Recording scratch, reused across recordings (one is in flight at a
	// time): capture vectors for the pre and post walks, file read/write
	// sets, and probes. Promotion copies what a super-op keeps, so failed
	// and poisoned recordings allocate nothing.
	preData, postData     []uint64
	preShapes, postShapes []uint64
	sfreads, sfwrites     []fileWord
	sprobes               []Probe
}

// New returns an engine over the given walk sources. Every hook except Arm
// and Disarm is required.
func New(sources []Source, hooks Hooks) *Engine {
	return &Engine{
		sources: sources,
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
	for i := range op.freads {
		g := &op.freads[i]
		if *g.p != g.val {
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
	w := &e.w
	*w = W{mode: modeMatch, data: op.guard, shapes: op.gshapes}
	e.walk(w)
	if w.failed || w.pos != len(op.guard) || w.spos != len(op.gshapes) {
		return 0, false
	}
	// Commit: from here on divergence is a bug, not a bailout.
	if !op.walkClean {
		*w = W{mode: modeRestore, data: op.post, shapes: op.gshapes}
		e.walk(w)
		if w.pos != len(op.post) {
			panic("jit: restore walk did not consume the recorded state vector")
		}
	}
	for i := range op.fwrites {
		fw := &op.fwrites[i]
		*fw.p = fw.val
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

func (e *Engine) walk(w *W) {
	for _, s := range e.sources {
		s.WalkJIT(w)
		if w.failed {
			return
		}
	}
}

// beginRecord starts capturing the in-flight trap: it snapshots the guard
// vector, clocks, and trace counters, and arms the poison taps.
func (e *Engine) beginRecord(exc *[ExcWords]uint64, ent *entry) {
	rec := &recording{exc: *exc, ent: ent}
	rec.freads = e.sfreads[:0]
	rec.fwrites = e.sfwrites[:0]
	rec.probes = e.sprobes[:0]
	for i := range e.rdSeen {
		e.rdSeen[i] = [2]uint64{}
		e.wrSeen[i] = [2]uint64{}
	}
	w := &e.w
	*w = W{mode: modeCapture, data: e.preData[:0], shapes: e.preShapes[:0]}
	e.walk(w)
	e.preData, e.preShapes = w.data, w.shapes
	rec.guard, rec.gshapes = w.data, w.shapes
	rec.poisoned = w.failed
	for i := 0; i < e.hooks.NumCPUs; i++ {
		e.marks[i] = e.hooks.ClockState(i)
	}
	e.hooks.Trace.BeginCounterLog()
	e.rec = rec
	if e.hooks.Arm != nil {
		e.hooks.Arm()
	}
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
	if e.hooks.Disarm != nil {
		e.hooks.Disarm()
	}
	// The counter log must be disarmed on every path out of this function;
	// EndCounterLog below reads it before this runs.
	defer e.hooks.Trace.AbortCounterLog()
	// Reclaim the recording's scratch (the appends may have regrown it).
	e.reclaimScratch(rec)
	if rec.poisoned {
		rec.ent.poison++
		return
	}
	w := &e.w
	*w = W{mode: modeCapture, data: e.postData[:0], shapes: e.postShapes[:0]}
	e.walk(w)
	e.postData, e.postShapes = w.data, w.shapes
	if w.failed || len(w.shapes) != len(rec.gshapes) {
		rec.ent.poison++
		return
	}
	for i := range w.shapes {
		if w.shapes[i] != rec.gshapes[i] {
			rec.ent.poison++
			return
		}
	}
	post := w.data
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
	op := &superOp{
		exc:     rec.exc,
		guard:   append([]uint64(nil), rec.guard...),
		gshapes: append([]uint64(nil), rec.gshapes...),
		post:    append([]uint64(nil), post...),
		freads:  freads,
		fwrites: fwrites,
		probes:  append([]Probe(nil), rec.probes...),
		clocks:  clocks,
		retVal:  retVal,
		next:    rec.ent.ops,
		// A promoted recording saw no TLB mutation (mutation poisons), so
		// the generation now is the one its probes were valid under.
		tlbGen: e.hooks.TLBGen(),
	}
	op.walkClean = len(post) == len(rec.guard)
	for i := range post {
		if post[i] != rec.guard[i] {
			op.walkClean = false
			break
		}
	}
	if !td.Empty() {
		op.tdelta = td
	}
	rec.ent.ops = op
	rec.ent.nops++
	rec.ent.count = 0
}

// reclaimScratch hands a finished recording's list storage back to the
// engine for the next recording.
func (e *Engine) reclaimScratch(rec *recording) {
	e.sfreads, e.sfwrites, e.sprobes = rec.freads[:0], rec.fwrites[:0], rec.probes[:0]
}

// AbortRecord discards the active recording (handler panicked).
func (e *Engine) AbortRecord() {
	rec := e.rec
	if rec == nil {
		return
	}
	e.rec = nil
	if e.hooks.Disarm != nil {
		e.hooks.Disarm()
	}
	e.hooks.Trace.AbortCounterLog()
	e.reclaimScratch(rec)
	rec.ent.poison++
}

// Poison marks the active recording non-promotable; the poison taps and
// subsystems call it when state outside the walk is touched.
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
	rec := e.rec
	if rec == nil {
		return
	}
	e.rec = nil
	if e.hooks.Disarm != nil {
		e.hooks.Disarm()
	}
	e.hooks.Trace.AbortCounterLog()
	e.reclaimScratch(rec)
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
