package arm

import (
	"fmt"
	"slices"

	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/trace"
)

// PhysBus gives the CPU access to memory-mapped devices (GICv2 interface
// windows, virtio doorbells). Access returns false if no device claims the
// address, in which case the access goes to RAM.
type PhysBus interface {
	Access(c *CPU, pa mem.Addr, write bool, size int, val *uint64) bool
}

// Stage2 translates guest (intermediate) physical addresses to machine
// physical addresses using the currently programmed VTTBR_EL2/VTCR_EL2.
// The MMU model implements it; ok=false is a stage-2 translation fault.
type Stage2 interface {
	Translate(c *CPU, ipa mem.Addr, write bool) (pa mem.Addr, ok bool)
}

// SysRegDevice implements registers with device semantics (generic timers,
// GIC CPU interface). Handled reports whether the device claims r.
type SysRegDevice interface {
	SysRegRead(c *CPU, r SysReg) (v uint64, handled bool)
	SysRegWrite(c *CPU, r SysReg, v uint64) (handled bool)
}

// SysRegClaimer lets a device declare, at AddDevice time, the registers it
// may ever handle, so the per-access dispatch indexes straight to the
// interested devices. A device that does not implement it is dispatched on
// every Device-flagged register (the pre-table behavior); either way the
// handled result still decides at access time. Claims are limited to
// Device-flagged registers, so that flag alone tells which elements of a
// CtxSeq a device may intercept.
type SysRegClaimer interface {
	SysRegClaims() []SysReg
}

// CPU is one simulated ARMv8 core. It is not safe for concurrent use; the
// machine model steps cores deterministically.
type CPU struct {
	ID   int
	Mem  *mem.Memory
	Cost *CostModel
	Feat Features

	// Trace collects trap events; may be nil.
	Trace *trace.Collector

	// Vector is the EL2 exception vector: the host hypervisor.
	Vector Handler
	// NV2 is the NEVE engine (package core); nil models a CPU without
	// FEAT_NV2 regardless of Feat.NV2.
	NV2 NV2Engine
	// NV2Pages resolves a deferred access page base address to the tracked
	// register store backing it, or nil for a page that only exists as raw
	// memory. The machine model binds it to the hypervisor's page registry
	// before the core runs; the NEVE engine resolves deferred accesses
	// through NV2Store, so page traffic stays inside the trace-JIT replay
	// guard instead of poisoning it.
	NV2Pages func(base mem.Addr) RegStore
	// Bus claims device physical addresses.
	Bus PhysBus
	// S2 is the stage-2 MMU context.
	S2 Stage2
	// Budget, when non-nil, is the watchdog or fault injector (or both,
	// as one value) every interpreted trap and every Tick charges (after
	// the trap is recorded and before the EL2 vector runs; before a
	// Tick's interrupt delivery). A watchdog panics to abort the run once
	// a budget is exceeded, which the platform's recovery boundary
	// converts into a typed error; an injector perturbs the machine on
	// its schedule. The trace-JIT charges the traps and steps of each
	// replayed super-op to the same budget, and replays only what the
	// budget admits, so the engine stays on under it.
	Budget jit.Budget

	// st holds the core's mode words (the st* indices in jit.go). Every
	// access reports to stTap, so the trace-JIT guards them like regs.
	st     [numStWords]uint64
	regs   [NumSysRegs]uint64
	cycles uint64

	// levelCycles attributes elapsed cycles to the virtualization level
	// that spent them (0 = host hypervisor); lastAttributed marks the
	// cycle count at the previous attribution point.
	levelCycles    [8]uint64
	lastAttributed uint64

	devices []SysRegDevice
	// devTable dispatches device-register accesses: devTable[r] holds, in
	// registration order, exactly the devices that may claim r. Built at
	// AddDevice time so raw() indexes instead of scanning every device.
	devTable [NumSysRegs][]SysRegDevice
	// devMask mirrors devTable occupancy as one byte per register: the
	// access fast path tests it instead of loading a slice header from the
	// much larger devTable, keeping the hot dispatch cache-resident.
	devMask [NumSysRegs]bool

	// excPool stages in-flight Exceptions, one slot per nesting depth, so
	// the steady-state trap path performs no heap allocation. Slots are
	// live only for the duration of the handler call at their depth;
	// handlers that keep exception data copy it (they all do).
	excPool  [maxTrapDepth]Exception
	excDepth int
	// marks are the clock rollback points of in-flight speculative
	// sequences, one slot per nesting depth (PushClockMark).
	marks     []clockMark
	markDepth int

	// sinks is the append-only table st[stVIRQ] indexes (index 0 is nil):
	// every virtual IRQ sink this core has been pointed at.
	sinks []VIRQSink

	pendingIRQ []int

	// jit, when non-nil, is the trace-JIT engine consulted on every trap;
	// jitPoison is its pre-bound poison hook, and regsTap, stTap and
	// irqTap the engine's notifiers for regs, st and pendingIRQ (see
	// SetJIT in jit.go). Every read or write of regs must notify regsTap
	// with the effective storage index.
	jit       *jit.Engine
	jitPoison func()
	regsTap   *jit.FileTap
	regsFID   jit.FileID
	stTap     *jit.FileTap
	irqTap    *jit.QueueTap

	// nv2Base and nv2Store remember the last page NV2Store resolved to a
	// registered store. A base is registered once, with one store, so the
	// pair stays valid for the core's lifetime; an unregistered base is
	// never remembered.
	nv2Base  mem.Addr
	nv2Store RegStore
}

// maxTrapDepth bounds the pooled trap nesting (recursive virtualization
// forwards exits through at most a few levels); deeper nesting falls back
// to heap allocation rather than failing.
const maxTrapDepth = 16

// NewCPU returns a core with the given features, attached to physical
// memory m, using the default cost model, initially at EL2.
func NewCPU(id int, m *mem.Memory, feat Features) *CPU {
	return &CPU{
		ID:   id,
		Mem:  m,
		Cost: DefaultCosts(),
		Feat: feat,
		st:   [numStWords]uint64{stEL: uint64(EL2)},
	}
}

// AddDevice registers a system register device (timer, GIC CPU interface)
// and indexes it into the per-register dispatch table.
func (c *CPU) AddDevice(d SysRegDevice) {
	c.devices = append(c.devices, d)
	if cl, ok := d.(SysRegClaimer); ok {
		for _, r := range cl.SysRegClaims() {
			if !Info(r).Device {
				panic(fmt.Sprintf("arm: device claims %s, which has no device semantics", r))
			}
			c.devTable[r] = append(c.devTable[r], d)
			c.devMask[r] = true
		}
		return
	}
	// No declaration: dispatch on every register with device semantics.
	for r := RegInvalid + 1; r < numSysRegs; r++ {
		if Info(r).Device {
			c.devTable[r] = append(c.devTable[r], d)
			c.devMask[r] = true
		}
	}
}

// Cycles returns the core's cycle counter.
func (c *CPU) Cycles() uint64 { return c.cycles }

// attribute charges the cycles elapsed since the last attribution point to
// the level that was running.
func (c *CPU) attribute(level VLevel) {
	if level >= 0 && int(level) < len(c.levelCycles) {
		c.levelCycles[level] += c.cycles - c.lastAttributed
	}
	c.lastAttributed = c.cycles
}

// LevelCycles returns how many cycles each virtualization level has spent
// on this core (0 = host hypervisor, 1 = guest hypervisor or VM, ...): the
// breakdown behind the exit multiplication problem.
func (c *CPU) LevelCycles() []uint64 {
	c.attribute(c.Level())
	out := make([]uint64, len(c.levelCycles))
	copy(out, c.levelCycles[:])
	return out
}

// ResetLevelCycles clears the per-level attribution.
func (c *CPU) ResetLevelCycles() {
	c.levelCycles = [8]uint64{}
	c.lastAttributed = c.cycles
}

// AddCycles charges raw cycles (used by device models).
func (c *CPU) AddCycles(n uint64) { c.cycles += n }

// clockMark is a rollback point for the cycle accounting; see
// PushClockMark.
type clockMark struct {
	cycles         uint64
	levelCycles    [8]uint64
	lastAttributed uint64
}

// PushClockMark saves a rollback point for the cycle accounting and
// returns its depth. A caller that charges cycles speculatively (a batched
// context sequence that may abort mid-way) pushes a mark first, pops it
// when the sequence completes, and on an aborting unwind calls
// UnwindClockMark with the depth, so the aborted attempt is not
// double-charged on top of the fallback path. Marks live in per-core
// slots indexed by nesting depth, like excPool, so none is ever copied.
func (c *CPU) PushClockMark() int {
	d := c.markDepth
	if d == len(c.marks) {
		c.marks = append(c.marks, clockMark{})
	}
	m := &c.marks[d]
	m.cycles, m.levelCycles, m.lastAttributed = c.cycles, c.levelCycles, c.lastAttributed
	c.markDepth++
	return d
}

// PopClockMark drops the innermost mark: its sequence completed.
func (c *CPU) PopClockMark() { c.markDepth-- }

// UnwindClockMark rewinds the cycle accounting to the mark at depth d and
// drops it and every mark above it, unless that mark was already popped.
func (c *CPU) UnwindClockMark(d int) {
	if c.markDepth <= d {
		return
	}
	m := &c.marks[d]
	c.cycles, c.levelCycles, c.lastAttributed = m.cycles, m.levelCycles, m.lastAttributed
	c.markDepth = d
}

// Work charges n instructions of straight-line work: the modeled software's
// logic between privileged operations.
func (c *CPU) Work(n uint64) { c.cycles += n * c.Cost.Insn }

// MemOp charges n cached data memory accesses issued by modeled software
// (e.g. saving general-purpose registers to a context structure).
func (c *CPU) MemOp(n uint64) { c.cycles += n * c.Cost.Mem }

// EL returns the physical exception level, which only the model itself and
// tests may observe. Modeled guest software must use CurrentEL, which is
// subject to the ARMv8.3 disguise. (EL, Level and GuestLevel index st by
// constant instead of calling get so they stay inlinable on the trap path.)
func (c *CPU) EL() EL {
	c.stTap.Read(stEL)
	return EL(c.st[stEL])
}

// Level returns the virtualization level of the currently running software
// (0 = host hypervisor), for tracing and tests.
func (c *CPU) Level() VLevel {
	c.stTap.Read(stLevel)
	return VLevel(c.st[stLevel])
}

// SetGuestLevel records the virtualization level of the guest context the
// host hypervisor has prepared to run; the trap-return path restores it.
func (c *CPU) SetGuestLevel(l VLevel) {
	c.set(stGuestLevel, uint64(l))
	if c.EL() != EL2 {
		c.set(stLevel, uint64(l))
	}
}

// GuestLevel returns the scheduled guest context's level.
func (c *CPU) GuestLevel() VLevel {
	c.stTap.Read(stGuestLevel)
	return VLevel(c.st[stGuestLevel])
}

// VIRQ returns the IRQ vector of the guest currently scheduled at vEL1.
func (c *CPU) VIRQ() VIRQSink {
	if i := c.get(stVIRQ); i != 0 {
		return c.sinks[i-1]
	}
	return nil
}

// SetVIRQ points the core at the IRQ vector of the guest scheduled at
// vEL1 (nil for none).
func (c *CPU) SetVIRQ(s VIRQSink) {
	i := 0
	if s != nil {
		i = slices.Index(c.sinks, s) + 1
		if i == 0 {
			c.sinks = append(c.sinks, s)
			i = len(c.sinks)
		}
	}
	c.set(stVIRQ, uint64(i))
}

// Reg reads register storage directly, bypassing traps, devices and cycle
// accounting. For model plumbing (hypervisor-internal state, devices,
// the NEVE engine, tests) only — modeled software uses MRS.
func (c *CPU) Reg(r SysReg) uint64 {
	i := StorageReg(r)
	c.regsTap.Read(int(i))
	return c.regs[i]
}

// SetReg writes register storage directly; see Reg.
func (c *CPU) SetReg(r SysReg, v uint64) {
	i := StorageReg(r)
	c.regsTap.Write(int(i))
	c.regs[i] = v
}

// HCR returns the live HCR_EL2 value (trap routing consults it constantly).
func (c *CPU) HCR() uint64 { return c.hcrRead() }

func (c *CPU) hcrRead() uint64 {
	c.regsTap.Read(int(HCR_EL2))
	return c.regs[HCR_EL2]
}

// CurrentEL models reading the CurrentEL special register. Under ARMv8.3
// nested virtualization the hardware disguises the deprivileged execution by
// reporting EL2 to a guest hypervisor really running in EL1 (Section 2).
func (c *CPU) CurrentEL() EL {
	c.cycles += c.Cost.SysReg
	c.regsTap.Read(int(HCR_EL2))
	el := c.EL()
	if el == EL1 && c.regs[HCR_EL2]&HCRNV != 0 && c.Feat.NV {
		return EL2
	}
	return el
}

// MRS models a system register read by the running software.
func (c *CPU) MRS(r SysReg) uint64 {
	info := infoRef(r)
	if info.WriteOnly {
		panic(fmt.Sprintf("arm: MRS of write-only %s", r))
	}
	return c.access(r, info, false, 0)
}

// MSR models a system register write by the running software.
func (c *CPU) MSR(r SysReg, v uint64) {
	info := infoRef(r)
	if info.ReadOnly {
		panic(fmt.Sprintf("arm: MSR of read-only %s", r))
	}
	c.access(r, info, true, v)
}

// access implements the trap routing rules of Sections 2 and 4:
//
//	physical EL2           native access (with VHE E2H redirection)
//	physical EL1, EL2 reg  ARMv8.0: undefined ("crash"); ARMv8.3 NV: trap;
//	                       NEVE: rewritten to memory or an EL1 register
//	physical EL1, EL1 reg  plain guest: native; deprivileged non-VHE guest
//	                       hypervisor (NV1 model bit): trap / NEVE memory
//	physical EL1, EL0 reg  always native
func (c *CPU) access(r SysReg, info *RegInfo, write bool, wval uint64) uint64 {
	el := c.EL()
	if info.VHEOnly && !c.Feat.VHE {
		panic(&UndefError{Reg: r, EL: el})
	}
	if el == EL2 {
		// effEL2 folds alias resolution and VHE E2H redirection of EL1
		// access instructions (Section 2) into one precomputed load.
		b := 0
		c.regsTap.Read(int(HCR_EL2))
		if c.regs[HCR_EL2]&HCRE2H != 0 {
			b = 1
		}
		eff := effEL2[b][r]
		c.cycles += c.Cost.SysReg
		if !c.devMask[eff] {
			// No device claims eff: plain storage. (raw's EL1 ID-register
			// virtualization does not apply at EL2.)
			if write {
				c.regsTap.Write(int(eff))
				c.regs[eff] = wval
				return wval
			}
			c.regsTap.Read(int(eff))
			return c.regs[eff]
		}
		return c.raw(eff, write, wval)
	}
	if el != EL1 {
		panic(fmt.Sprintf("arm: sysreg access to %s at %s not modeled", r, el))
	}

	c.regsTap.Read(int(HCR_EL2))
	hcr := c.regs[HCR_EL2]
	// The NV bits have effect only on hardware that implements the
	// feature: on ARMv8.0 a deprivileged hypervisor crashes no matter what
	// the host programs (Section 2).
	nv := hcr&HCRNV != 0 && c.Feat.NV
	el2Encoded := info.Min == EL2 || info.EL2Access // includes *_EL12/*_EL02 encodings and SP_EL1

	// GICv3: EL1 writes to ICC_SGI1R_EL1 trap to EL2 when HCR_EL2.IMO is
	// set, so the hypervisor can emulate SGIs between virtual CPUs (the
	// Virtual IPI path of Section 5).
	if r == ICC_SGI1R_EL1 && write && hcr&HCRIMO != 0 {
		return c.trapSysReg(r, write, wval)
	}

	switch {
	case el2Encoded:
		if !nv {
			// ARMv8.0: the hypervisor instruction is undefined at EL1 and
			// the unmodified guest hypervisor crashes (Section 2).
			panic(&UndefError{Reg: r, EL: el})
		}
		if hcr&HCRNV2 != 0 && c.Feat.NV2 && c.NV2 != nil {
			if v, ok := c.nv2Access(r, write, wval); ok {
				return v
			}
		}
		return c.trapSysReg(r, write, wval)
	case info.Min == EL1 && !info.ReadOnly && nv && hcr&HCRNV1 != 0:
		// Deprivileged non-VHE guest hypervisor: its EL1 accesses refer to
		// its VM's virtual EL1 state and must not clobber the hardware EL1
		// registers that hold the guest hypervisor's own state (Section 4).
		if hcr&HCRNV2 != 0 && c.Feat.NV2 && c.NV2 != nil {
			if v, ok := c.nv2Access(r, write, wval); ok {
				return v
			}
		}
		return c.trapSysReg(r, write, wval)
	default:
		c.cycles += c.Cost.SysReg
		if !c.devMask[r] && (write || (r != MPIDR_EL1 && r != MIDR_EL1)) {
			// Plain storage: no device claims r and the access is not an
			// EL1 ID-register read (which raw virtualizes).
			if write {
				c.regsTap.Write(int(r))
				c.regs[r] = wval
				return wval
			}
			c.regsTap.Read(int(r))
			return c.regs[r]
		}
		return c.raw(r, write, wval)
	}
}

// NV2Store returns the tracked store backing the deferred access page at
// base, or nil for a page that only exists as raw memory. The NEVE engine
// calls it on every deferred access; the registry lookup behind NV2Pages
// runs only when VNCR_EL2 names a different page than last time.
func (c *CPU) NV2Store(base mem.Addr) RegStore {
	if c.nv2Store != nil && c.nv2Base == base {
		return c.nv2Store
	}
	if c.NV2Pages == nil {
		return nil
	}
	st := c.NV2Pages(base)
	if st != nil {
		c.nv2Base, c.nv2Store = base, st
	}
	return st
}

// nv2Access hands an access to the NEVE engine through the staging slot
// st[stNV2Val]: a stack variable's address would escape to the heap, and
// the engine runs synchronously and never re-enters MRS/MSR. The slot is
// written first, so the engine's pointer accesses stay inside the write set.
func (c *CPU) nv2Access(r SysReg, write bool, wval uint64) (uint64, bool) {
	c.set(stNV2Val, wval)
	switch c.NV2.Access(c, r, write, &c.st[stNV2Val]) {
	case NV2Memory, NV2Redirected:
		return c.get(stNV2Val), true
	}
	return 0, false
}

// raw performs a non-trapping access: device hook first, then storage.
func (c *CPU) raw(r SysReg, write bool, wval uint64) uint64 {
	if !write && c.EL() == EL1 {
		// ID register virtualization: reads at EL1 return the values the
		// hypervisor programmed into VMPIDR_EL2/VPIDR_EL2.
		switch r {
		case MPIDR_EL1:
			c.regsTap.Read(int(VMPIDR_EL2))
			return c.regs[VMPIDR_EL2]
		case MIDR_EL1:
			c.regsTap.Read(int(VPIDR_EL2))
			return c.regs[VPIDR_EL2]
		}
	}
	for _, d := range c.devTable[r] {
		if write {
			if d.SysRegWrite(c, r, wval) {
				return wval
			}
		} else if v, ok := d.SysRegRead(c, r); ok {
			return v
		}
	}
	if write {
		c.regsTap.Write(int(r))
		c.regs[r] = wval
		return wval
	}
	c.regsTap.Read(int(r))
	return c.regs[r]
}

func (c *CPU) trapSysReg(r SysReg, write bool, wval uint64) uint64 {
	return c.trapE(Exception{EC: ECSysReg, Reg: r, Write: write, Val: wval})
}

// HVC models the hvc instruction: a hypercall into EL2 carrying a 16-bit
// immediate, the vehicle of the paper's paravirtualization (Section 4).
func (c *CPU) HVC(imm uint16) uint64 {
	if c.EL() == EL2 {
		panic("arm: HVC at EL2 not modeled")
	}
	return c.trapE(Exception{EC: ECHVC64, Imm: imm})
}

// SMC models the smc instruction trapped by HCR_EL2.TSC.
func (c *CPU) SMC(imm uint16) uint64 {
	if c.EL() == EL2 {
		panic("arm: SMC at EL2 not modeled")
	}
	return c.trapE(Exception{EC: ECSMC64, Imm: imm})
}

// ERET models the eret instruction executed by a deprivileged guest
// hypervisor: under ARMv8.3 NV it traps to the host hypervisor, which must
// load the nested VM's state before entry (Section 4); without NV it is the
// unmodified-hypervisor crash case.
func (c *CPU) ERET() {
	if c.EL() != EL1 {
		panic("arm: guest ERET only modeled at EL1; the host enters guests with RunGuest")
	}
	c.regsTap.Read(int(HCR_EL2))
	if c.regs[HCR_EL2]&HCRNV == 0 || !c.Feat.NV {
		panic(&UndefError{EL: EL1, What: "ERET by deprivileged hypervisor without FEAT_NV"})
	}
	c.trapE(Exception{EC: ECERet})
}

// WFI models the wfi instruction, trapped to EL2 by hypervisors.
func (c *CPU) WFI() {
	if c.EL() == EL2 {
		panic("arm: WFI at EL2 not modeled")
	}
	c.trapE(Exception{EC: ECWFx})
}

// Tick charges n instructions of guest work and is a preemption point:
// pending physical interrupts trap to EL2 and pending virtual interrupts
// are delivered to the guest here.
func (c *CPU) Tick(n uint64) {
	c.cycles += n * c.Cost.Insn
	if c.Budget != nil {
		c.Budget.OnTick(n)
	}
	c.checkIRQ()
	c.deliverVIRQ()
}

// AssertIRQ marks a physical interrupt pending on this core (called by the
// GIC distributor model).
func (c *CPU) AssertIRQ(intid int) {
	c.irqTap.Write()
	c.pendingIRQ = append(c.pendingIRQ, intid)
}

// HasPendingIRQ reports whether a physical interrupt is pending.
func (c *CPU) HasPendingIRQ() bool {
	c.irqTap.Read()
	return len(c.pendingIRQ) > 0
}

func (c *CPU) checkIRQ() {
	for c.HasPendingIRQ() && c.EL() != EL2 && c.hcrRead()&HCRIMO != 0 {
		intid, _ := c.TakeIRQ()
		c.trapE(Exception{EC: ECVirtIRQ, IRQ: intid})
	}
}

// TakeIRQ pops one pending physical interrupt; used by the host hypervisor
// when it handles interrupts natively (while no guest is running).
func (c *CPU) TakeIRQ() (int, bool) {
	if !c.HasPendingIRQ() {
		return 0, false
	}
	c.irqTap.Write()
	intid := c.pendingIRQ[0]
	c.pendingIRQ = c.pendingIRQ[1:]
	return intid, true
}

// trapE takes a synchronous exception by value and stages it in the
// per-depth exception pool, so the steady-state trap path allocates
// nothing; nesting deeper than the pool falls back to the heap.
func (c *CPU) trapE(ev Exception) uint64 {
	if c.excDepth < len(c.excPool) {
		e := &c.excPool[c.excDepth]
		*e = ev
		c.excDepth++
		v := c.trap(e)
		c.excDepth--
		return v
	}
	e := new(Exception)
	*e = ev
	return c.trap(e)
}

// trap takes a synchronous exception (or interrupt) to EL2, runs the host
// hypervisor's vector, and returns to the guest context the host scheduled.
// For read-style traps the handler's return value is the instruction's
// result.
func (c *CPU) trap(e *Exception) uint64 {
	prevLevel := c.Level()
	c.cycles += c.Cost.TrapEnter
	c.attribute(prevLevel)
	if c.Trace != nil {
		ev := traceEvent(e)
		ev.FromLevel = int(prevLevel)
		ev.Cycle = c.cycles
		c.Trace.Trap(ev)
	}
	if c.Budget != nil {
		c.Budget.OnTrap()
	}
	if c.Vector == nil {
		panic(fmt.Sprintf("arm: trap %s with no EL2 vector installed", e.EC))
	}
	c.set(stEL, uint64(EL2))
	c.set(stLevel, 0)
	var v uint64
	if j := c.jit; j != nil {
		var exc [jit.ExcWords]uint64
		PackExc(e, &exc)
		rv, st := j.Dispatch(c.ID, &exc)
		switch st {
		case jit.Hit:
			v = rv
		case jit.Record:
			v = c.recordedHandle(j, e)
		default:
			v = c.Vector.HandleTrap(c, e)
		}
	} else {
		v = c.Vector.HandleTrap(c, e)
	}
	c.cycles += c.Cost.TrapReturn
	c.attribute(0)
	c.set(stEL, uint64(EL1))
	c.set(stLevel, uint64(c.GuestLevel()))
	c.deliverVIRQ()
	return v
}

// RunGuest is the host hypervisor's guest entry: it charges the eret,
// switches to the guest context at the given virtualization level, runs fn
// (the guest software), and returns to EL2 when fn completes. It is used
// both for the top-level run loop and for emulating exception entry into a
// guest hypervisor's virtual EL2 vector (forwarding an exit, Section 4).
func (c *CPU) RunGuest(level VLevel, fn func()) {
	if c.EL() != EL2 {
		panic("arm: RunGuest requires EL2")
	}
	c.cycles += c.Cost.TrapReturn
	c.attribute(0)
	c.set(stEL, uint64(EL1))
	c.SetGuestLevel(level)
	c.deliverVIRQ()
	fn()
	c.attribute(c.Level())
	c.set(stEL, uint64(EL2))
	c.set(stLevel, 0)
}

// deliverVIRQ delivers the highest-priority pending virtual interrupt from
// the list registers to the running guest, modeling the GIC virtual CPU
// interface (Section 2: VMs acknowledge and complete virtual interrupts
// without trapping).
func (c *CPU) deliverVIRQ() {
	if c.EL() != EL1 || c.get(stInVIRQ) != 0 || c.get(stIRQMasked) != 0 || c.get(stVIRQ) == 0 {
		return
	}
	c.regsTap.Read(int(ICH_HCR_EL2))
	c.regsTap.Read(int(HCR_EL2))
	if c.regs[ICH_HCR_EL2]&ICHHCREn == 0 || c.regs[HCR_EL2]&HCRIMO == 0 {
		return
	}
	for {
		lr, ok := c.findPendingLR()
		if !ok {
			return
		}
		// Exception entry does not change the list register; the guest's
		// IAR read acknowledges (pending -> active) and its EOI completes.
		c.regsTap.Read(int(lr))
		before := c.regs[lr]
		c.cycles += c.Cost.ExcEnterEL1
		c.set(stInVIRQ, 1)
		c.set(stIRQMasked, 1)
		c.VIRQ().HandleVIRQ(c, int(before&LRVIntIDMask))
		c.set(stInVIRQ, 0)
		c.set(stIRQMasked, 0)
		c.regsTap.Read(int(lr))
		if c.regs[lr] == before {
			// The guest did not acknowledge; stop to avoid livelock.
			return
		}
	}
}

func (c *CPU) findPendingLR() (SysReg, bool) {
	for i := 0; i < 16; i++ {
		r := ICH_LR0_EL2 + SysReg(i)
		c.regsTap.Read(int(r))
		v := c.regs[r]
		if lrState(v) == LRStatePending {
			return r, true
		}
	}
	return RegInvalid, false
}

// GuestRead models a data memory read by guest software at intermediate
// physical address ipa. Unmapped addresses raise a stage-2 fault to EL2,
// whose handler supplies the value (MMIO emulation); device addresses go to
// the physical bus; everything else is RAM.
func (c *CPU) GuestRead(ipa mem.Addr, size int) uint64 {
	v, _ := c.guestAccess(ipa, size, false, 0)
	return v
}

// GuestWrite models a data memory write by guest software.
func (c *CPU) GuestWrite(ipa mem.Addr, size int, v uint64) {
	c.guestAccess(ipa, size, true, v)
}

func (c *CPU) guestAccess(ipa mem.Addr, size int, write bool, wval uint64) (uint64, bool) {
	pa := ipa
	if c.EL() != EL2 && c.hcrRead()&HCRVM != 0 {
		if c.S2 == nil {
			panic("arm: stage-2 enabled with no MMU attached")
		}
		var ok bool
		pa, ok = c.S2.Translate(c, ipa, write)
		if !ok {
			v := c.trapE(Exception{EC: ECDAbtLow, FaultIPA: ipa, Write: write, Val: wval, Size: size})
			return v, true
		}
	}
	if c.Bus != nil {
		val := wval
		if c.Bus.Access(c, pa, write, size, &val) {
			c.cycles += c.Cost.MMIO
			return val, true
		}
	}
	c.cycles += c.Cost.Mem
	if write {
		switch size {
		case 4:
			if err := c.Mem.Write32(pa, uint32(wval)); err != nil {
				panic(err)
			}
		default:
			if err := c.Mem.Write64(pa, wval); err != nil {
				panic(err)
			}
		}
		return wval, false
	}
	switch size {
	case 4:
		v, err := c.Mem.Read32(pa)
		if err != nil {
			panic(err)
		}
		return uint64(v), false
	default:
		v, err := c.Mem.Read64(pa)
		if err != nil {
			panic(err)
		}
		return v, false
	}
}

// PhysRead64 is a physical (EL2) memory read by the host hypervisor.
func (c *CPU) PhysRead64(pa mem.Addr) uint64 {
	c.cycles += c.Cost.Mem
	return c.Mem.MustRead64(pa)
}

// PhysWrite64 is a physical (EL2) memory write by the host hypervisor.
func (c *CPU) PhysWrite64(pa mem.Addr, v uint64) {
	c.cycles += c.Cost.Mem
	c.Mem.MustWrite64(pa, v)
}
