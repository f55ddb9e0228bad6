// Package trace provides exit/trap counters and cycle breakdowns for the
// simulator. Every experiment in the paper reports either cycle counts
// (Tables 1 and 6), trap counts (Table 7), or normalized overhead built from
// cycle counts (Figure 2); this package is the single collection point.
//
// Counting is the hot path: the nested configurations take tens of traps
// per modeled operation, and the sweeps run millions of them. Events are
// therefore identified by a packed typed Key (reason + architecture code +
// write bit + small operand) counted in a flat array, with a sparse map
// only for the tail (faulting addresses, out-of-range operands). Detail
// strings are never built while counting; Event.Detail formats lazily via
// a per-architecture formatter registered by the CPU models, and is only
// invoked for record-mode dumps (cmd/nevetrace) and report rendering.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Reason classifies why control transferred to a hypervisor. The enumeration
// mirrors the trap sources discussed in the paper: system register accesses
// (Section 6), ERET interception (Section 4), hypercalls, stage-2 faults
// (memory-mapped device and GICv2 accesses), interrupts, and the x86
// VMX exit reasons used by the comparator.
type Reason int

const (
	ReasonNone Reason = iota
	ReasonSysReg
	ReasonERet
	ReasonHVC
	ReasonStage2Fault
	ReasonIRQ
	ReasonWFx
	ReasonSMC
	ReasonTimer
	ReasonMMIO
	ReasonVMCall
	ReasonVMRead
	ReasonVMWrite
	ReasonVMPtrLd
	ReasonVMResume
	ReasonEPTViolation
	ReasonExtInt
	ReasonMSRAccess
	numReasons
)

var reasonNames = [...]string{
	ReasonNone:         "none",
	ReasonSysReg:       "sysreg",
	ReasonERet:         "eret",
	ReasonHVC:          "hvc",
	ReasonStage2Fault:  "stage2-fault",
	ReasonIRQ:          "irq",
	ReasonWFx:          "wfx",
	ReasonSMC:          "smc",
	ReasonTimer:        "timer",
	ReasonMMIO:         "mmio",
	ReasonVMCall:       "vmcall",
	ReasonVMRead:       "vmread",
	ReasonVMWrite:      "vmwrite",
	ReasonVMPtrLd:      "vmptrld",
	ReasonVMResume:     "vmresume",
	ReasonEPTViolation: "ept-violation",
	ReasonExtInt:       "external-interrupt",
	ReasonMSRAccess:    "msr-access",
}

func (r Reason) String() string {
	if r < 0 || int(r) >= len(reasonNames) {
		return fmt.Sprintf("reason(%d)", int(r))
	}
	return reasonNames[r]
}

// Arch discriminates which CPU model emitted an event; it selects the
// registered lazy detail formatter and disambiguates Code values.
type Arch uint8

const (
	ArchARM Arch = iota
	ArchX86
	numArches
)

// Event records one trap to a hypervisor. The trapped object is identified
// by small typed fields, not a preformatted string, so constructing and
// counting an Event allocates nothing; Detail renders the classic string
// form on demand.
type Event struct {
	Reason Reason
	// Arch is the emitting CPU model.
	Arch Arch
	// Code is the architecture's own classification of the trap: the ARM
	// exception class (ESR_EL2.EC) or the x86 VMX exit reason code.
	Code uint8
	// Write distinguishes MSR from MRS and store from load faults.
	Write bool
	// Aux is the small operand identifying the trapped object: the system
	// register ID, VMCS field, hypercall immediate, or interrupt number.
	Aux uint16
	// Addr is the faulting address for stage-2 faults and EPT violations.
	Addr uint64
	// FromLevel is the virtualization level that trapped (2 = L2 guest, 1 =
	// L1 guest hypervisor); ToLevel is the handling hypervisor (0 = host).
	FromLevel, ToLevel int
	// Cycle is the per-core cycle count when the trap was taken.
	Cycle uint64
}

// Key packs an event's counting identity — everything that distinguishes
// its detail string except the fault address — into 32 bits:
//
//	bits  0-15  Aux
//	bit     16  Write
//	bits 17-24  Code
//	bit     25  Arch
//	bits 26-30  Reason
type Key uint32

const (
	keyWriteBit = 1 << 16
	keyCodeShf  = 17
	keyArchBit  = 1 << 25
	keyRsnShf   = 26
)

// Key returns the packed counting key for the event.
func (ev Event) Key() Key {
	k := Key(ev.Aux) | Key(ev.Code)<<keyCodeShf | Key(ev.Reason)<<keyRsnShf
	if ev.Write {
		k |= keyWriteBit
	}
	if ev.Arch == ArchX86 {
		k |= keyArchBit
	}
	return k
}

// Event reconstructs the identity fields of the key (the per-occurrence
// fields — levels, cycle, address — are zero).
func (k Key) Event() Event {
	ev := Event{
		Reason: Reason(k >> keyRsnShf),
		Code:   uint8(k >> keyCodeShf),
		Write:  k&keyWriteBit != 0,
		Aux:    uint16(k),
	}
	if k&keyArchBit != 0 {
		ev.Arch = ArchX86
	}
	return ev
}

// addrKey extends Key with the fault address for the sparse tail, where
// the detail string depends on an operand wider than Aux.
type addrKey struct {
	k    Key
	addr uint64
}

// DetailFormatter renders the classic detail string for one event.
type DetailFormatter func(Event) string

var detailFormatters [numArches]DetailFormatter

// RegisterDetailFormatter installs the lazy detail formatter for one
// architecture; the CPU model packages call it from init.
func RegisterDetailFormatter(a Arch, f DetailFormatter) {
	detailFormatters[a] = f
}

// Detail renders the event's classic detail string ("msr HCR_EL2",
// "hvc #0", "vmread GUEST_RIP", ...) through the architecture's registered
// formatter. It is only called on cold paths: trace dumps and summaries.
func (ev Event) Detail() string {
	if int(ev.Arch) < len(detailFormatters) {
		if f := detailFormatters[ev.Arch]; f != nil {
			return f(ev)
		}
	}
	// No CPU model linked in (package-local tests): a generic, stable
	// rendering of the typed fields.
	rw := "r"
	if ev.Write {
		rw = "w"
	}
	return fmt.Sprintf("%s[%#x/%s/%d/%#x]", ev.Reason, ev.Code, rw, ev.Aux, ev.Addr)
}

// denseAux bounds the operand range counted in the flat array: every
// system register ID, VMCS field, and the practical immediate/interrupt
// space fit below it. Larger operands fall to the sparse map.
const denseAux = 256

// denseInfo names, per reason, the (arch, code) pair whose events count in
// the flat array. Reasons whose details embed a fault address — and events
// carrying a non-canonical code — take the sparse map.
var denseInfo [numReasons]struct {
	arch Arch
	code uint8
	ok   bool
}

// RegisterDenseCode marks (reason, arch, code) as the dense counting slot
// for reason: events with exactly this classification and Aux < 256 are
// counted in the flat array. The CPU model packages call it from init for
// their address-free trap kinds.
func RegisterDenseCode(r Reason, a Arch, code uint8) {
	if r < 0 || r >= numReasons {
		panic(fmt.Sprintf("trace: dense registration for invalid reason %d", int(r)))
	}
	denseInfo[r] = struct {
		arch Arch
		code uint8
		ok   bool
	}{a, code, true}
}

func init() {
	// The Key layout gives Reason 5 bits; keep the enumeration inside it.
	if numReasons > 32 {
		panic("trace: Reason enumeration overflows the packed Key layout")
	}
}

// Collector accumulates trap events and cycle attribution. The zero value is
// not ready to use; construct with NewCollector. Collector is not safe for
// concurrent use; the machine model steps cores deterministically on one
// goroutine.
type Collector struct {
	events   []Event
	byReason [numReasons]uint64
	// dense is the flat counter array, indexed
	// (reason*2 + write)*denseAux + aux for events matching denseInfo.
	dense []uint64
	// sparse counts the tail: addressful details and non-canonical codes.
	sparse  map[addrKey]uint64
	enabled bool
	record  bool

	// recent, when non-nil, is a fixed-capacity ring of the most recent
	// events, independent of record mode. The fault layer enables it so a
	// SimError can carry the trap history leading up to a failure; writes
	// are allocation-free, so enabling it does not disturb the zero-alloc
	// trap-path guarantee.
	recent      []Event
	recentNext  int
	recentTotal uint64

	// Counter-log state (see jit.go). While logging, Trap appends each
	// counter location it increments so a recording's delta costs
	// O(increments) instead of a full-counter snapshot and diff; gen is
	// bumped by Reset and Restore, invalidating a log they interrupt.
	// logRecent is recentTotal when the log began.
	logging   bool
	logGen    uint64
	gen       uint64
	logRecent uint64
	tReasons  []Reason
	tDense    []int32
	tSparse   []addrKey
}

// NewCollector returns a counting collector. If recordEvents is true the
// individual events are retained for trace dumps (cmd/nevetrace); otherwise
// only counts are kept, which is what the benchmarks use.
func NewCollector(recordEvents bool) *Collector {
	return &Collector{
		dense:   make([]uint64, int(numReasons)*2*denseAux),
		sparse:  make(map[addrKey]uint64),
		enabled: true,
		record:  recordEvents,
	}
}

// SetEnabled turns collection on or off, returning the previous state.
// The microbenchmarks warm up paths with collection off and then measure.
func (c *Collector) SetEnabled(on bool) bool {
	prev := c.enabled
	c.enabled = on
	return prev
}

// Trap records one trap event. In counting mode the steady state performs
// no allocation: a per-reason increment plus either a flat-array increment
// or a sparse-map increment on a value key.
func (c *Collector) Trap(ev Event) {
	if c == nil || !c.enabled {
		return
	}
	inRange := ev.Reason >= 0 && ev.Reason < numReasons
	if inRange {
		c.byReason[ev.Reason]++
		if c.logging {
			c.tReasons = append(c.tReasons, ev.Reason)
		}
	}
	if d := &denseInfo[densify(ev.Reason)]; inRange && d.ok && d.arch == ev.Arch && d.code == ev.Code && ev.Aux < denseAux {
		idx := (int(ev.Reason)*2)*denseAux + int(ev.Aux)
		if ev.Write {
			idx += denseAux
		}
		c.dense[idx]++
		if c.logging {
			c.tDense = append(c.tDense, int32(idx))
		}
	} else {
		k := addrKey{ev.Key(), ev.Addr}
		c.sparse[k]++
		if c.logging {
			c.tSparse = append(c.tSparse, k)
		}
	}
	if c.record {
		c.events = append(c.events, ev)
	}
	if c.recent != nil {
		c.recent[c.recentNext] = ev
		c.recentNext++
		if c.recentNext == len(c.recent) {
			c.recentNext = 0
		}
		c.recentTotal++
	}
}

// EnableRecent keeps a ring of the last n events for diagnostics (the
// fault layer's SimError history). It allocates the ring once; subsequent
// writes are allocation-free. n <= 0 disables the ring.
func (c *Collector) EnableRecent(n int) {
	if n <= 0 {
		c.recent, c.recentNext, c.recentTotal = nil, 0, 0
		return
	}
	c.recent = make([]Event, n)
	c.recentNext = 0
	c.recentTotal = 0
}

// Recent returns the retained recent events, oldest first. Nil unless
// EnableRecent was called.
func (c *Collector) Recent() []Event {
	if c == nil || c.recent == nil || c.recentTotal == 0 {
		return nil
	}
	n := len(c.recent)
	if c.recentTotal < uint64(n) {
		out := make([]Event, c.recentNext)
		copy(out, c.recent[:c.recentNext])
		return out
	}
	out := make([]Event, 0, n)
	out = append(out, c.recent[c.recentNext:]...)
	out = append(out, c.recent[:c.recentNext]...)
	return out
}

// Total returns the total number of traps recorded.
func (c *Collector) Total() uint64 {
	var t uint64
	for _, n := range c.byReason {
		t += n
	}
	return t
}

// Count returns the number of traps recorded for one reason.
func (c *Collector) Count(r Reason) uint64 {
	if r < 0 || r >= numReasons {
		return 0
	}
	return c.byReason[r]
}

// forEachKey visits every recorded counting key with its count.
func (c *Collector) forEachKey(fn func(ev Event, addr uint64, n uint64)) {
	for idx, n := range c.dense {
		if n == 0 {
			continue
		}
		aux := idx % denseAux
		rw := idx / denseAux
		r := Reason(rw / 2)
		d := denseInfo[r]
		fn(Event{
			Reason: r,
			Arch:   d.arch,
			Code:   d.code,
			Write:  rw%2 == 1,
			Aux:    uint16(aux),
		}, 0, n)
	}
	for k, n := range c.sparse {
		ev := k.k.Event()
		fn(ev, k.addr, n)
	}
}

// DetailCount returns the number of traps recorded whose detail renders as
// the given string. It formats lazily and is intended for tests and
// reports, not hot paths.
func (c *Collector) DetailCount(detail string) uint64 {
	var t uint64
	c.forEachKey(func(ev Event, addr uint64, n uint64) {
		ev.Addr = addr
		if ev.Detail() == detail {
			t += n
		}
	})
	return t
}

// densify clamps a reason to a valid denseInfo index; callers combine it
// with an in-range check, the clamp only keeps the lookup in bounds.
func densify(r Reason) Reason {
	if r < 0 || r >= numReasons {
		return ReasonNone
	}
	return r
}

// KeyCount returns the count recorded for one address-free key.
func (c *Collector) KeyCount(k Key) uint64 {
	ev := k.Event()
	if d := denseInfo[densify(ev.Reason)]; d.ok && d.arch == ev.Arch && d.code == ev.Code && ev.Aux < denseAux && ev.Reason < numReasons {
		idx := (int(ev.Reason)*2)*denseAux + int(ev.Aux)
		if ev.Write {
			idx += denseAux
		}
		return c.dense[idx]
	}
	return c.sparse[addrKey{k, 0}]
}

// Details returns every recorded detail string with its count, aggregating
// keys that render identically (e.g. read and write stage-2 faults on the
// same address).
func (c *Collector) Details() map[string]uint64 {
	out := make(map[string]uint64)
	c.forEachKey(func(ev Event, addr uint64, n uint64) {
		ev.Addr = addr
		out[ev.Detail()] += n
	})
	return out
}

// Events returns the retained events (nil unless recording was requested).
func (c *Collector) Events() []Event {
	return c.events
}

// Reset clears all counts and events. The events backing array and the
// sparse map are retained and reused, so a long sweep of Reset/measure
// rounds reaches a steady state with no per-round allocation.
func (c *Collector) Reset() {
	c.gen++
	c.events = c.events[:0]
	c.byReason = [numReasons]uint64{}
	clear(c.dense)
	clear(c.sparse)
	if c.recent != nil {
		c.recentNext = 0
		c.recentTotal = 0
	}
}

// Recording reports whether individual events are retained.
func (c *Collector) Recording() bool { return c.record }

// Enabled reports whether collection is currently on.
func (c *Collector) Enabled() bool { return c.enabled }

// RecentCap returns the capacity of the recent-event ring (0 when the ring
// is disabled).
func (c *Collector) RecentCap() int { return len(c.recent) }

// Merge folds another collector's counts (and retained events) into this
// one. The SMP epoch engine gives each core a private shard collector while
// vCPU segments run on parallel goroutines — Collector is not safe for
// concurrent use — and merges the shards back in core order at the end of
// the run, so the aggregate is deterministic and identical to a sequential
// run. Counter-log state (the trace-JIT integration) is not merged; the
// engine never shards while a recording is live.
func (c *Collector) Merge(o *Collector) {
	if c == nil || o == nil {
		return
	}
	for r, n := range o.byReason {
		c.byReason[r] += n
	}
	for i, n := range o.dense {
		if n != 0 {
			c.dense[i] += n
		}
	}
	for k, n := range o.sparse {
		c.sparse[k] += n
	}
	if c.record {
		c.events = append(c.events, o.events...)
	}
	if c.recent != nil {
		for _, ev := range o.Recent() {
			c.recent[c.recentNext] = ev
			c.recentNext++
			if c.recentNext == len(c.recent) {
				c.recentNext = 0
			}
			c.recentTotal++
		}
	}
}

// Summary renders a per-reason and per-detail breakdown, most frequent
// first, as used by cmd/nevetrace.
func (c *Collector) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total traps: %d\n", c.Total())
	for r := Reason(1); r < numReasons; r++ {
		if n := c.byReason[r]; n > 0 {
			fmt.Fprintf(&b, "  %-20s %6d\n", r.String(), n)
		}
	}
	type kv struct {
		k string
		v uint64
	}
	byDetail := c.Details()
	details := make([]kv, 0, len(byDetail))
	for k, v := range byDetail {
		details = append(details, kv{k, v})
	}
	sort.Slice(details, func(i, j int) bool {
		if details[i].v != details[j].v {
			return details[i].v > details[j].v
		}
		return details[i].k < details[j].k
	})
	if len(details) > 0 {
		b.WriteString("by detail:\n")
		for _, d := range details {
			fmt.Fprintf(&b, "  %-24s %6d\n", d.k, d.v)
		}
	}
	return b.String()
}
