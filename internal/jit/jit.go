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
// The guard vector is split: alongside the value guards, a recording may
// carry parameter slots — words the recorded sequence consumed without
// observing. A tracked word the sequence only copied into another tracked
// word (FileCopy: bulk context-save sequences, timer compare values moved
// between files) is recorded as a src→dst move, optionally src+imm, not as
// a value guard, so the same super-op replays for any live source value.
// The parameterization degrades soundly: the moment the interpreted
// sequence observes a parameter word through any read tap — directly, or
// through a word derived from it — the parameter is upgraded back to a
// value guard of the origin word, pinning every derived value the sequence
// could have branched on.
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

// DefaultThreshold is how many sightings of a trap cause trigger a
// recording when the platform does not specify one.
const DefaultThreshold = 2

const (
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
	// TLBGen, when non-nil, returns the TLB's mutation generation; an
	// unchanged generation lets replay skip re-validating probes.
	TLBGen func() uint64
	// ClockGap, when non-nil, returns cycles-since-last-attribution for a
	// core: the only clock fact the replay guard needs, fetched without
	// copying the full ClockState.
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

// paramSrc is an external tracked word a recording consumes as a parameter
// (a copy source) rather than as a value guard. val is the value it held
// at record time — unused by replay unless the parameter is upgraded
// (guarded) because the sequence observed it.
type paramSrc struct {
	f       FileID
	idx     int32
	guarded bool
	val     uint64
}

// recMove is one declared copy captured during a recording: the word
// (dstF, dstIdx) was assigned params[param]'s live value plus imm. Chained
// copies are resolved to their external origin at declaration time, so
// every recMove's parameter is a word the recording had not written when
// the copy executed.
type recMove struct {
	param  int32
	dstF   FileID
	dstIdx int32
	imm    uint64
}

// moveOp is a promoted recMove: replay assigns *dst = *src + imm, reading
// the live source value instead of guarding it.
type moveOp struct {
	src, dst *uint64
	imm      uint64
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
	e.prov = append(e.prov, make([]int32, len(f)))
	e.psrc = append(e.psrc, make([]int32, len(f)))
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

// CopyWord declares, through taps, a copy the caller performed from word si
// of src's file to word di of dst's file without observing the value (no
// branch, no derived computation). When both taps report to the same engine
// the copy becomes a FileCopy parameter slot — the promoted super-op
// re-executes the move against live state instead of value-guarding the
// source. Any other combination (either side untapped, or taps on
// different engines) degrades to the plain Read/Write notifications, which
// stay sound: the read guards, the write restores.
func CopyWord(src *FileTap, si int, dst *FileTap, di int) {
	if src != nil && dst != nil && src.e == dst.e {
		if src.e.rec != nil {
			src.e.FileCopy(src.id, si, dst.id, di, 0)
		}
		return
	}
	src.Read(si)
	dst.Write(di)
}

// provConst marks a word plain-written by the recording: its final value is
// recorder-computed and harvested as a constant at promotion. Positive prov
// values are 1-based indexes into the recording's move list (the word's
// last writer was a declared copy); zero means the word is untouched.
const provConst = -1

// FileRead records a tracked-file read during a recording: the first
// read of a word not already written by the recording guards the value
// being read (later reads and reads of self-written words are derived
// from state already guarded). Reading a word the recording derived from a
// parameter — or a parameter source itself — upgrades the parameter's
// external origin to a value guard: the interpreted sequence observed the
// value and may have branched on it, so replay must pin it.
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
	if pv := e.prov[i][idx]; pv != 0 {
		if pv > 0 {
			e.guardParam(rec, rec.moves[pv-1].param)
		}
		return
	}
	word, bit := idx>>6, uint64(1)<<uint(idx&63)
	if e.rdSeen[i][word]&bit != 0 {
		return
	}
	if ps := e.psrc[i][idx]; ps > 0 {
		e.guardParam(rec, ps-1)
		return
	}
	e.rdSeen[i][word] |= bit
	rec.freads = append(rec.freads, fileWord{f, int32(idx), e.files[i][idx]})
}

// guardParam upgrades parameter pi to a value guard of its origin word:
// the guard pins the live origin to its record-time value, which in turn
// pins every value the recording derived from it, so the moves that
// consumed the parameter stay sound whether they replay as moves or are
// folded back to constants at promotion.
func (e *Engine) guardParam(rec *recording, pi int32) {
	p := &rec.params[pi]
	if p.guarded {
		return
	}
	p.guarded = true
	i := int(p.f) - 1
	e.rdSeen[i][int(p.idx)>>6] |= uint64(1) << uint(int(p.idx)&63)
	rec.freads = append(rec.freads, fileWord{p.f, p.idx, p.val})
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
	e.prov[i][idx] = provConst
	word, bit := idx>>6, uint64(1)<<uint(idx&63)
	if e.wrSeen[i][word]&bit != 0 {
		return
	}
	e.wrSeen[i][word] |= bit
	rec.fwrites = append(rec.fwrites, fileWord{f, int32(idx), 0})
}

// FileCopy records a declared copy during a recording: the machine moved
// the value of tracked word (srcF, srcIdx), plus imm, into tracked word
// (dstF, dstIdx) without observing it (no branch, no derived computation —
// a pure storage move, as in the batched context sequences). Instead of
// value-guarding the source, the engine emits a parameter move the replay
// re-executes against the live source value. Copies chain: a copy whose
// source is itself move-derived resolves to the external origin with the
// immediates summed, so every promoted move reads a word the sequence had
// not yet written. Copies from words the recording already pinned — plain-
// written, or value-guarded by an earlier observing read — degrade to
// constant writes; they cost nothing and stay sound.
//
// The caller performs the actual data move itself, exactly as with the
// Read/Write taps; FileCopy is bookkeeping only.
func (e *Engine) FileCopy(srcF FileID, srcIdx int, dstF FileID, dstIdx int, imm uint64) {
	rec := e.rec
	if rec == nil || rec.poisoned {
		return
	}
	if srcF <= 0 || dstF <= 0 {
		rec.poisoned = true
		return
	}
	si := int(srcF) - 1
	var pi int32
	switch pv := e.prov[si][srcIdx]; {
	case pv < 0:
		// Source holds a recorder-computed constant.
		e.FileWrite(dstF, dstIdx)
		return
	case pv > 0:
		m := &rec.moves[pv-1]
		pi = m.param
		imm += m.imm
	default:
		if e.rdSeen[si][srcIdx>>6]&(uint64(1)<<uint(srcIdx&63)) != 0 {
			// Source already value-guarded: pinned, so the copy result is a
			// constant too.
			e.FileWrite(dstF, dstIdx)
			return
		}
		if ps := e.psrc[si][srcIdx]; ps > 0 {
			pi = ps - 1
		} else {
			rec.params = append(rec.params, paramSrc{f: srcF, idx: int32(srcIdx), val: e.files[si][srcIdx]})
			pi = int32(len(rec.params) - 1)
			e.psrc[si][srcIdx] = pi + 1
		}
	}
	di := int(dstF) - 1
	rec.moves = append(rec.moves, recMove{param: pi, dstF: dstF, dstIdx: int32(dstIdx), imm: imm})
	e.prov[di][dstIdx] = int32(len(rec.moves))
	word, bit := dstIdx>>6, uint64(1)<<uint(dstIdx&63)
	if e.wrSeen[di][word]&bit == 0 {
		e.wrSeen[di][word] |= bit
		rec.fwrites = append(rec.fwrites, fileWord{dstF, int32(dstIdx), 0})
	}
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
	// moves are the parameter slots: replay assigns *dst = *src + imm in
	// recorded (program) order, reading live source values, after the
	// restore walk and before the constant fwrites — so every move source
	// still holds its pre-replay value when read, matching the interpreted
	// sequence, which read each source before writing it.
	moves []moveOp
	// pwords are the move sources, used by chain eviction to recognize an
	// older variant's value guard that this variant supersedes.
	pwords []*uint64
	probes []Probe
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
	params   []paramSrc
	moves    []recMove
	probes   []Probe
	poisoned bool
}

// Engine is the recorder, promotion policy, super-op cache, and replay
// engine. It is not safe for concurrent use; the machine model steps cores
// deterministically on one goroutine.
type Engine struct {
	threshold int
	sources   []Source
	hooks     Hooks
	entries   map[uint64]*entry
	rec       *recording
	stats     trace.JITStats
	// files holds the tracked register files; FileID i is files[i-1].
	// rdSeen/wrSeen are the per-file per-recording first-access bitmaps,
	// engine-owned scratch cleared when a recording begins. prov and psrc
	// are the per-word provenance tables of the active recording: prov maps
	// a written word to its last writer (provConst, or a 1-based move
	// index), psrc maps an external word to its 1-based parameter index.
	// Both are reset entry-by-entry from the recording's write, move, and
	// parameter lists when it ends, so their cost tracks what the recording
	// touched, not the registered file count.
	files     [][]uint64
	fileBases map[*uint64]FileID
	rdSeen    [][2]uint64
	wrSeen    [][2]uint64
	prov      [][]int32
	psrc      [][]int32
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
	sparams               []paramSrc
	smoves                []recMove
	sprobes               []Probe
}

// New returns an engine over the given walk sources. threshold <= 0 selects
// DefaultThreshold.
func New(threshold int, sources []Source, hooks Hooks) *Engine {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Engine{
		threshold: threshold,
		sources:   sources,
		hooks:     hooks,
		entries:   make(map[uint64]*entry),
		marks:     make([]ClockState, hooks.NumCPUs),
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
	if ent.count >= e.threshold {
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
		if !d.NeedGap {
			continue
		}
		if e.hooks.ClockGap != nil {
			if e.hooks.ClockGap(d.CPU) != d.PreGap {
				return 0, false
			}
			continue
		}
		cs := e.hooks.ClockState(d.CPU)
		if cs.Cycles-cs.LastAttributed != d.PreGap {
			return 0, false
		}
	}
	if len(op.probes) > 0 {
		gen := uint64(0)
		fresh := e.hooks.TLBGen == nil
		if !fresh {
			gen = e.hooks.TLBGen()
			fresh = gen != op.tlbGen
		}
		if fresh {
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
	// Parameter moves first, in program order: every move source was
	// external (unwritten) when the interpreted copy read it, so it must be
	// read before any constant write to it lands.
	for i := range op.moves {
		m := &op.moves[i]
		*m.dst = *m.src + m.imm
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
	rec.params = e.sparams[:0]
	rec.moves = e.smoves[:0]
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
	// EndCounterLog below reads it before this runs. The provenance tables
	// are reset on every path too, but only after promotion has read them.
	defer e.hooks.Trace.AbortCounterLog()
	defer e.resetProv(rec)
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
	// Compile the split guard vector: each recorded move whose word it was
	// the final writer of, and whose parameter stayed unobserved, promotes
	// to a replayed move; everything else written falls back to a constant
	// harvested from the file (for an upgraded parameter the origin guard
	// pins the copied value, so the constant is exact).
	var moves []moveOp
	var pwords []*uint64
	for i := range rec.moves {
		m := &rec.moves[i]
		if e.prov[m.dstF-1][m.dstIdx] != int32(i+1) || rec.params[m.param].guarded {
			continue
		}
		p := &rec.params[m.param]
		src := &e.files[p.f-1][p.idx]
		moves = append(moves, moveOp{src: src, dst: &e.files[m.dstF-1][m.dstIdx], imm: m.imm})
		pwords = append(pwords, src)
	}
	fwrites := make([]ptrWord, 0, len(rec.fwrites))
	for i := range rec.fwrites {
		fw := &rec.fwrites[i]
		if pv := e.prov[fw.f-1][fw.idx]; pv > 0 && !rec.params[rec.moves[pv-1].param].guarded {
			continue // replayed as a move
		}
		p := &e.files[fw.f-1][fw.idx]
		fwrites = append(fwrites, ptrWord{p: p, val: *p})
	}
	op := &superOp{
		exc:     rec.exc,
		guard:   append([]uint64(nil), rec.guard...),
		gshapes: append([]uint64(nil), rec.gshapes...),
		post:    append([]uint64(nil), post...),
		freads:  freads,
		fwrites: fwrites,
		moves:   moves,
		pwords:  pwords,
		probes:  append([]Probe(nil), rec.probes...),
		clocks:  clocks,
		retVal:  retVal,
		next:    rec.ent.ops,
	}
	if e.hooks.TLBGen != nil {
		// A promoted recording saw no TLB mutation (mutation poisons), so
		// the generation now is the one its probes were valid under.
		op.tlbGen = e.hooks.TLBGen()
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
	if len(op.moves) > 0 {
		e.evictSuperseded(rec.ent, op)
	}
}

// reclaimScratch hands a finished recording's list storage back to the
// engine for the next recording.
func (e *Engine) reclaimScratch(rec *recording) {
	e.sfreads, e.sfwrites, e.sprobes = rec.freads[:0], rec.fwrites[:0], rec.probes[:0]
	e.sparams, e.smoves = rec.params[:0], rec.moves[:0]
}

// resetProv clears the provenance tables entry-by-entry from the
// recording's write, move, and parameter lists — every table mutation is
// paired with a list append, so this restores the all-zero invariant the
// next recording relies on in time proportional to what was touched.
func (e *Engine) resetProv(rec *recording) {
	for i := range rec.fwrites {
		fw := &rec.fwrites[i]
		e.prov[fw.f-1][fw.idx] = 0
	}
	for i := range rec.moves {
		m := &rec.moves[i]
		e.prov[m.dstF-1][m.dstIdx] = 0
	}
	for i := range rec.params {
		p := &rec.params[i]
		e.psrc[p.f-1][p.idx] = 0
	}
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
	e.resetProv(rec)
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
	e.resetProv(rec)
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

// evictSuperseded unlinks plain chain variants that a freshly promoted
// parameterized variant covers: a single-use variant recorded before the
// parameterization — its guard pinning one round's compare value — can
// never match again once the value moves on, but it still costs a failed
// guard check on every dispatch and crowds the chain toward maxChain.
// Eviction is always correctness-safe (dropping a cached super-op only
// costs a future miss), so the comparator may be conservative.
func (e *Engine) evictSuperseded(ent *entry, op *superOp) {
	var prev *superOp
	for v := ent.ops; v != nil; {
		if v == op || !supersedes(op, v) {
			prev, v = v, v.next
			continue
		}
		if prev == nil {
			ent.ops = v.next
		} else {
			prev.next = v.next
		}
		v = v.next
		ent.nops--
		e.stats.Evictions++
	}
}

// supersedes reports whether parameterized variant op covers plain variant
// v: identical recorded behavior (walk guard, post state, writes, clocks,
// probes, counters, return value), with v's extra value guards falling only
// on words op reads as move sources. Every state v would replay in, op
// replays in too.
func supersedes(op, v *superOp) bool {
	if len(v.moves) != 0 || v.exc != op.exc || v.retVal != op.retVal {
		return false
	}
	if !slices.Equal(v.guard, op.guard) || !slices.Equal(v.gshapes, op.gshapes) || !slices.Equal(v.post, op.post) {
		return false
	}
	if !slices.Equal(v.clocks, op.clocks) || !slices.Equal(v.probes, op.probes) {
		return false
	}
	switch {
	case v.tdelta == nil && op.tdelta == nil:
	case v.tdelta != nil && op.tdelta != nil && v.tdelta.Equal(op.tdelta):
	default:
		return false
	}
	// op's guards must be a subset of v's (same word, same value), and v's
	// surplus guards must all be parameterized words of op.
	for i := range op.freads {
		if !containsGuard(v.freads, op.freads[i]) {
			return false
		}
	}
	for i := range v.freads {
		if containsGuard(op.freads, v.freads[i]) {
			continue
		}
		if !slices.Contains(op.pwords, v.freads[i].p) {
			return false
		}
	}
	// Same written-word set: op's constants must match v's exactly, and
	// v's surplus constant writes must be words op writes as moves.
	for i := range op.fwrites {
		if !containsGuard(v.fwrites, op.fwrites[i]) {
			return false
		}
	}
	for i := range v.fwrites {
		if containsGuard(op.fwrites, v.fwrites[i]) {
			continue
		}
		covered := false
		for j := range op.moves {
			if op.moves[j].dst == v.fwrites[i].p {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	for j := range op.moves {
		found := false
		for i := range v.fwrites {
			if v.fwrites[i].p == op.moves[j].dst {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func containsGuard(s []ptrWord, g ptrWord) bool {
	for i := range s {
		if s[i].p == g.p && s[i].val == g.val {
			return true
		}
	}
	return false
}
