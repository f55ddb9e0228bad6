package arm

import (
	"testing"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/trace"
)

// recHandler records exceptions and answers reads with a fixed value.
type recHandler struct {
	got  []Exception
	resp uint64
	fn   func(c *CPU, e *Exception) uint64
}

func (h *recHandler) HandleTrap(c *CPU, e *Exception) uint64 {
	h.got = append(h.got, *e)
	if h.fn != nil {
		return h.fn(c, e)
	}
	return h.resp
}

func newTestCPU(t *testing.T, feat Features) (*CPU, *recHandler) {
	t.Helper()
	c := NewCPU(0, mem.New(0), feat)
	h := &recHandler{}
	c.Vector = h
	c.Trace = trace.NewCollector(true)
	return c, h
}

// enterGuestEL1 puts the CPU at EL1 with the given HCR, as the host
// hypervisor would before running a guest.
func enterGuestEL1(c *CPU, hcr uint64, level VLevel) {
	c.SetReg(HCR_EL2, hcr)
	c.st[stEL] = uint64(EL1)
	c.SetGuestLevel(level)
}

func TestHostEL2AccessDirect(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	c.MSR(VTTBR_EL2, 0xabc)
	if got := c.MRS(VTTBR_EL2); got != 0xabc {
		t.Fatalf("VTTBR_EL2 = %#x", got)
	}
	if len(h.got) != 0 {
		t.Fatalf("host access trapped: %+v", h.got)
	}
}

func TestE2HRedirectionAtEL2(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	c.SetReg(HCR_EL2, HCRE2H)
	c.MSR(SCTLR_EL1, 0x55) // VHE: lands in SCTLR_EL2
	if got := c.Reg(SCTLR_EL2); got != 0x55 {
		t.Fatalf("SCTLR_EL2 = %#x, want 0x55", got)
	}
	if got := c.Reg(SCTLR_EL1); got != 0 {
		t.Fatalf("SCTLR_EL1 = %#x, want 0", got)
	}
	// _EL12 reaches the real EL1 register.
	c.MSR(SCTLR_EL12, 0x66)
	if got := c.Reg(SCTLR_EL1); got != 0x66 {
		t.Fatalf("SCTLR_EL1 via _EL12 = %#x, want 0x66", got)
	}
}

func TestNoE2HNoRedirection(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	c.MSR(SCTLR_EL1, 0x77)
	if got := c.Reg(SCTLR_EL1); got != 0x77 {
		t.Fatalf("SCTLR_EL1 = %#x", got)
	}
	if got := c.Reg(SCTLR_EL2); got != 0 {
		t.Fatalf("SCTLR_EL2 = %#x, want 0", got)
	}
}

func TestEL2AccessAtEL1WithoutNVCrashes(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV80())
	enterGuestEL1(c, 0, 1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("EL2 access at EL1 without NV did not crash")
		} else if _, ok := r.(*UndefError); !ok {
			t.Fatalf("panic %v, want *UndefError", r)
		}
	}()
	c.MSR(HCR_EL2, 1)
}

func TestERETAtEL1WithoutNVCrashes(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV80())
	enterGuestEL1(c, 0, 1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("ERET at EL1 without NV did not crash")
		}
	}()
	c.ERET()
}

func TestNVTrapsEL2Access(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	h.resp = 0x1234
	enterGuestEL1(c, HCRNV, 1)
	c.MSR(VTTBR_EL2, 0x42)
	if got := c.MRS(VTTBR_EL2); got != 0x1234 {
		t.Fatalf("trapped MRS = %#x, want handler response 0x1234", got)
	}
	if len(h.got) != 2 {
		t.Fatalf("traps = %d, want 2", len(h.got))
	}
	w := h.got[0]
	if w.EC != ECSysReg || w.Reg != VTTBR_EL2 || !w.Write || w.Val != 0x42 {
		t.Fatalf("write trap = %+v", w)
	}
	r := h.got[1]
	if r.EC != ECSysReg || r.Reg != VTTBR_EL2 || r.Write {
		t.Fatalf("read trap = %+v", r)
	}
	// The trapped write must not have modified the hardware register.
	if got := c.Reg(VTTBR_EL2); got != 0 {
		t.Fatalf("hardware VTTBR_EL2 = %#x, want 0", got)
	}
}

func TestCurrentELDisguise(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	if c.CurrentEL() != EL2 {
		t.Fatal("host CurrentEL != EL2")
	}
	enterGuestEL1(c, HCRNV, 1)
	if got := c.CurrentEL(); got != EL2 {
		t.Fatalf("disguised CurrentEL = %s, want EL2", got)
	}
	c.SetReg(HCR_EL2, 0)
	if got := c.CurrentEL(); got != EL1 {
		t.Fatalf("plain guest CurrentEL = %s, want EL1", got)
	}
}

func TestNV1TrapsEL1Access(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, HCRNV|HCRNV1, 1)
	c.MSR(SCTLR_EL1, 0x99)
	if len(h.got) != 1 || h.got[0].Reg != SCTLR_EL1 {
		t.Fatalf("traps = %+v", h.got)
	}
	if got := c.Reg(SCTLR_EL1); got != 0 {
		t.Fatal("NV1-trapped write reached hardware register")
	}
}

func TestNoNV1EL1AccessDirect(t *testing.T) {
	// A VHE guest hypervisor's EL1 accesses hit the hardware registers
	// directly (Section 5: that is why it traps less than non-VHE).
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, HCRNV, 1)
	c.MSR(SCTLR_EL1, 0x99)
	if len(h.got) != 0 {
		t.Fatalf("unexpected traps: %+v", h.got)
	}
	if got := c.Reg(SCTLR_EL1); got != 0x99 {
		t.Fatalf("SCTLR_EL1 = %#x", got)
	}
}

func TestEL0RegsNeverTrap(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, HCRNV|HCRNV1, 1)
	c.MSR(TPIDR_EL0, 7)
	if got := c.MRS(TPIDR_EL0); got != 7 {
		t.Fatalf("TPIDR_EL0 = %d", got)
	}
	if len(h.got) != 0 {
		t.Fatalf("EL0 access trapped: %+v", h.got)
	}
}

func TestROIDRegReadsDontTrapUnderNV1(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	c.SetReg(VMPIDR_EL2, 0x80000003)
	enterGuestEL1(c, HCRNV|HCRNV1, 1)
	if got := c.MRS(MPIDR_EL1); got != 0x80000003 {
		t.Fatalf("MPIDR_EL1 = %#x, want VMPIDR value", got)
	}
	if len(h.got) != 0 {
		t.Fatalf("MPIDR read trapped: %+v", h.got)
	}
}

func TestERETTrapsUnderNV(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, HCRNV, 1)
	c.ERET()
	if len(h.got) != 1 || h.got[0].EC != ECERet {
		t.Fatalf("traps = %+v", h.got)
	}
}

func TestHVCTrapsWithImmediate(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, 0, 1)
	c.HVC(0x1f)
	if len(h.got) != 1 || h.got[0].EC != ECHVC64 || h.got[0].Imm != 0x1f {
		t.Fatalf("traps = %+v", h.got)
	}
}

type memEngine struct{ calls int }

func (e *memEngine) Access(c *CPU, r SysReg, write bool, val *uint64) NV2Outcome {
	e.calls++
	if !write {
		*val = 0x5150
	}
	return NV2Memory
}

func TestNV2EngineShortCircuitsTrap(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV84())
	eng := &memEngine{}
	c.NV2 = eng
	enterGuestEL1(c, HCRNV|HCRNV1|HCRNV2, 1)
	c.MSR(VTTBR_EL2, 1)
	if got := c.MRS(VTTBR_EL2); got != 0x5150 {
		t.Fatalf("MRS via engine = %#x", got)
	}
	c.MSR(SCTLR_EL1, 1) // NV1 path also consults the engine
	if eng.calls != 3 {
		t.Fatalf("engine calls = %d, want 3", eng.calls)
	}
	if len(h.got) != 0 {
		t.Fatalf("traps despite NV2: %+v", h.got)
	}
}

func TestNV2EngineDecline(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV84())
	decline := func(c *CPU, r SysReg, write bool, val *uint64) NV2Outcome { return NV2Trap }
	c.NV2 = engineFunc(decline)
	enterGuestEL1(c, HCRNV|HCRNV2, 1)
	c.MSR(VTTBR_EL2, 1)
	if len(h.got) != 1 {
		t.Fatalf("traps = %d, want 1", len(h.got))
	}
}

type engineFunc func(c *CPU, r SysReg, write bool, val *uint64) NV2Outcome

func (f engineFunc) Access(c *CPU, r SysReg, write bool, val *uint64) NV2Outcome {
	return f(c, r, write, val)
}

func TestVHEOnlyEncodingUndefWithoutVHE(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV80())
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("VHE encoding on non-VHE CPU did not fault")
		}
	}()
	c.MSR(SCTLR_EL12, 1)
}

func TestTrapChargesCycles(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, HCRNV, 1)
	before := c.Cycles()
	c.HVC(0)
	got := c.Cycles() - before
	want := c.Cost.TrapEnter + c.Cost.TrapReturn
	if got != want {
		t.Fatalf("trap cost = %d cycles, want %d", got, want)
	}
}

func TestSysRegChargesCycles(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	before := c.Cycles()
	c.MSR(VTTBR_EL2, 1)
	if got := c.Cycles() - before; got != c.Cost.SysReg {
		t.Fatalf("sysreg cost = %d, want %d", got, c.Cost.SysReg)
	}
}

func TestTraceRecordsLevelAndDetail(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	_ = h
	enterGuestEL1(c, HCRNV, 2)
	c.MSR(VTTBR_EL2, 1)
	evs := c.Trace.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].FromLevel != 2 || evs[0].Detail() != "msr VTTBR_EL2" {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestPhysicalIRQDeliveredAtTick(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, HCRIMO, 1)
	c.AssertIRQ(27)
	c.Tick(10)
	if len(h.got) != 1 || h.got[0].EC != ECVirtIRQ || h.got[0].IRQ != 27 {
		t.Fatalf("traps = %+v", h.got)
	}
	if c.HasPendingIRQ() {
		t.Fatal("IRQ still pending after delivery")
	}
}

func TestPhysicalIRQNotDeliveredWithoutIMO(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, 0, 1)
	c.AssertIRQ(27)
	c.Tick(10)
	if len(h.got) != 0 {
		t.Fatalf("IRQ trapped without IMO: %+v", h.got)
	}
	if !c.HasPendingIRQ() {
		t.Fatal("IRQ lost")
	}
}

// irqSink acknowledges delivered interrupts the way a guest kernel's IAR
// read would (pending -> active), unless ack is false.
type irqSink struct {
	got []int
	ack bool
}

func (s *irqSink) HandleVIRQ(c *CPU, intid int) {
	s.got = append(s.got, intid)
	if s.ack {
		for i := 0; i < 16; i++ {
			r := ICHLR(i)
			if v := c.Reg(r); LRStateOf(v) == LRStatePending && LRVIntID(v) == intid {
				c.SetReg(r, lrSetState(v, LRStateActive))
			}
		}
	}
}

func TestVirtualIRQDelivery(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	sink := &irqSink{ack: true}
	c.SetVIRQ(sink)
	c.SetReg(ICH_HCR_EL2, ICHHCREn)
	c.SetReg(ICH_LR0_EL2, MakeLR(35, -1))
	enterGuestEL1(c, HCRIMO, 2)
	c.Tick(1)
	if len(sink.got) != 1 || sink.got[0] != 35 {
		t.Fatalf("delivered = %v", sink.got)
	}
	if LRStateOf(c.Reg(ICH_LR0_EL2)) != LRStateActive {
		t.Fatalf("LR state = %v, want active", LRStateOf(c.Reg(ICH_LR0_EL2)))
	}
	// Delivery happens once: the LR is now active.
	c.Tick(1)
	if len(sink.got) != 1 {
		t.Fatalf("re-delivered active interrupt: %v", sink.got)
	}
}

func TestVirtualIRQUnackedStops(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	sink := &irqSink{ack: false}
	c.SetVIRQ(sink)
	c.SetReg(ICH_HCR_EL2, ICHHCREn)
	c.SetReg(ICH_LR0_EL2, MakeLR(35, -1))
	enterGuestEL1(c, HCRIMO, 2)
	c.Tick(1)
	if len(sink.got) != 1 {
		t.Fatalf("unacked interrupt delivered %d times", len(sink.got))
	}
}

func TestVirtualIRQRequiresEnableAndIMO(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	sink := &irqSink{}
	c.SetVIRQ(sink)
	c.SetReg(ICH_LR0_EL2, MakeLR(35, -1))
	enterGuestEL1(c, HCRIMO, 2) // ICH_HCR.En clear
	c.Tick(1)
	if len(sink.got) != 0 {
		t.Fatal("delivered without ICH_HCR.En")
	}
	c.SetReg(ICH_HCR_EL2, ICHHCREn)
	c.SetReg(HCR_EL2, 0) // IMO clear
	c.Tick(1)
	if len(sink.got) != 0 {
		t.Fatal("delivered without IMO")
	}
}

func TestRunGuestLevelsAndReturn(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	var inside VLevel
	c.RunGuest(2, func() { inside = c.Level() })
	if inside != 2 {
		t.Fatalf("level inside guest = %d, want 2", inside)
	}
	if c.EL() != EL2 || c.Level() != 0 {
		t.Fatalf("after RunGuest: el=%s level=%d", c.EL(), c.Level())
	}
}

type fixedS2 struct {
	ok   bool
	base mem.Addr
}

func (s fixedS2) Translate(c *CPU, ipa mem.Addr, write bool) (mem.Addr, bool) {
	return s.base + ipa, s.ok
}

func TestStage2FaultTrapsAndEmulates(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	c.S2 = fixedS2{ok: false}
	h.resp = 0xeeee
	enterGuestEL1(c, HCRVM, 2)
	if got := c.GuestRead(0x9000, 8); got != 0xeeee {
		t.Fatalf("emulated MMIO read = %#x", got)
	}
	if len(h.got) != 1 || h.got[0].EC != ECDAbtLow || h.got[0].FaultIPA != 0x9000 {
		t.Fatalf("traps = %+v", h.got)
	}
}

func TestStage2MappedGoesToRAM(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	c.S2 = fixedS2{ok: true, base: 0x100000}
	enterGuestEL1(c, HCRVM, 2)
	c.GuestWrite(0x2000, 8, 0x77)
	if len(h.got) != 0 {
		t.Fatalf("mapped access trapped: %+v", h.got)
	}
	if got := c.Mem.MustRead64(0x102000); got != 0x77 {
		t.Fatalf("RAM at translated address = %#x", got)
	}
	if got := c.GuestRead(0x2000, 8); got != 0x77 {
		t.Fatalf("GuestRead = %#x", got)
	}
}

type fakeBus struct{ last mem.Addr }

func (b *fakeBus) Access(c *CPU, pa mem.Addr, write bool, size int, val *uint64) bool {
	if pa < 0x8000 || pa >= 0x9000 {
		return false
	}
	b.last = pa
	if !write {
		*val = 0xd0d0
	}
	return true
}

func TestBusClaimsDeviceWindow(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	bus := &fakeBus{}
	c.Bus = bus
	c.S2 = fixedS2{ok: true}
	enterGuestEL1(c, HCRVM, 2)
	if got := c.GuestRead(0x8010, 4); got != 0xd0d0 {
		t.Fatalf("device read = %#x", got)
	}
	if bus.last != 0x8010 {
		t.Fatalf("device saw address %#x", uint64(bus.last))
	}
}

func TestWriteOnlyReadPanics(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	defer func() {
		if recover() == nil {
			t.Fatal("MRS of write-only register did not panic")
		}
	}()
	c.MRS(ICC_EOIR1_EL1)
}

func TestReadOnlyWritePanics(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	defer func() {
		if recover() == nil {
			t.Fatal("MSR of read-only register did not panic")
		}
	}()
	c.MSR(ICH_VTR_EL2, 1)
}

func TestCurrentELNotDisguisedWithoutFeatNV(t *testing.T) {
	// The disguise is an ARMv8.3 feature: on v8.0 hardware CurrentEL
	// reports the truth even if NV bits are (meaninglessly) set.
	c, _ := newTestCPU(t, FeaturesV80())
	enterGuestEL1(c, HCRNV, 1)
	if got := c.CurrentEL(); got != EL1 {
		t.Fatalf("v8.0 CurrentEL = %v, want EL1", got)
	}
}

func TestNVBitsInertWithoutFeature(t *testing.T) {
	// On v8.0 the host cannot make EL2 accesses trap: the deprivileged
	// hypervisor crashes regardless of HCR contents.
	c, h := newTestCPU(t, FeaturesV80())
	enterGuestEL1(c, HCRNV|HCRNV1|HCRNV2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("EL2 access on v8.0 did not crash")
		}
		if len(h.got) != 0 {
			t.Fatal("EL2 access on v8.0 trapped instead of crashing")
		}
	}()
	c.MSR(VTTBR_EL2, 1)
}

func TestSmallAccessors(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	c.AddCycles(5)
	c.Work(3)
	c.MemOp(2)
	want := uint64(5 + 3*c.Cost.Insn + 2*c.Cost.Mem)
	if c.Cycles() != want {
		t.Fatalf("cycles = %d, want %d", c.Cycles(), want)
	}
	c.SetReg(HCR_EL2, HCRNV)
	if c.HCR() != HCRNV {
		t.Fatal("HCR accessor wrong")
	}
	c.SetGuestLevel(2)
	if c.GuestLevel() != 2 {
		t.Fatal("GuestLevel accessor wrong")
	}
}

func TestLevelCyclesAttribution(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	c.ResetLevelCycles()
	c.RunGuest(1, func() {
		c.Work(1000)
		c.HVC(0) // host handles (no work), back to guest
		c.Work(500)
	})
	lv := c.LevelCycles()
	if lv[1] < 1500 {
		t.Fatalf("guest cycles = %d, want >= 1500", lv[1])
	}
	if lv[0] == 0 {
		t.Fatal("host attributed nothing despite the trap")
	}
}

func TestSMCTraps(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, HCRTSC, 1)
	c.SMC(4)
	if len(h.got) != 1 || h.got[0].EC != ECSMC64 || h.got[0].Imm != 4 {
		t.Fatalf("traps = %+v", h.got)
	}
}

func TestWFITraps(t *testing.T) {
	c, h := newTestCPU(t, FeaturesV83())
	enterGuestEL1(c, 0, 1)
	c.WFI()
	if len(h.got) != 1 || h.got[0].EC != ECWFx {
		t.Fatalf("traps = %+v", h.got)
	}
}

func TestHVCAtEL2Panics(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	defer func() {
		if recover() == nil {
			t.Fatal("HVC at EL2 did not panic")
		}
	}()
	c.HVC(0)
}

func TestTakeIRQ(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	if _, ok := c.TakeIRQ(); ok {
		t.Fatal("TakeIRQ on empty queue")
	}
	c.AssertIRQ(9)
	intid, ok := c.TakeIRQ()
	if !ok || intid != 9 {
		t.Fatalf("TakeIRQ = %d, %v", intid, ok)
	}
}

type probeDevice struct{ reads, writes int }

func (d *probeDevice) SysRegRead(c *CPU, r SysReg) (uint64, bool) {
	if r == PMCR_EL0 {
		d.reads++
		return 0x41, true
	}
	return 0, false
}
func (d *probeDevice) SysRegWrite(c *CPU, r SysReg, v uint64) bool {
	if r == PMCR_EL0 {
		d.writes++
		return true
	}
	return false
}

func TestDeviceHookOrder(t *testing.T) {
	c, _ := newTestCPU(t, FeaturesV83())
	d := &probeDevice{}
	c.AddDevice(d)
	// PMCR_EL0 is not marked Device in the registry, so the hook is not
	// consulted: storage wins.
	c.MSR(PMCR_EL0, 7)
	if d.writes != 0 {
		t.Fatal("device consulted for non-device register")
	}
	if c.MRS(PMCR_EL0) != 7 {
		t.Fatal("storage value lost")
	}
}
