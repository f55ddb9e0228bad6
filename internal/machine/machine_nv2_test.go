package machine

import (
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/mem"
)

func TestNV2EngineAttachedWithFeature(t *testing.T) {
	m := New(Config{CPUs: 1, Feat: arm.FeaturesV84()})
	if m.CPUs[0].NV2 == nil {
		t.Fatal("FEAT_NV2 CPU has no NEVE engine")
	}
	m83 := New(Config{CPUs: 1, Feat: arm.FeaturesV83()})
	if m83.CPUs[0].NV2 != nil {
		t.Fatal("v8.3 CPU has a NEVE engine")
	}
}

func TestNV2AblationOverride(t *testing.T) {
	eng := core.Engine{DisableDefer: true}
	m := New(Config{CPUs: 2, Feat: arm.FeaturesV84(), NV2: &eng})
	for i, c := range m.CPUs {
		got, ok := c.NV2.(core.Engine)
		if !ok || !got.DisableDefer {
			t.Fatalf("cpu %d engine = %#v", i, c.NV2)
		}
	}
}

func TestGICHWindowOnBus(t *testing.T) {
	m := New(Config{CPUs: 1, Feat: arm.FeaturesV83()})
	c := m.CPUs[0]
	c.SetReg(arm.ICH_VMCR_EL2, 0x99)
	var val uint64
	// GICH_VMCR offset 0x8 in the host interface window.
	if !m.Bus.Access(c, 0x0801_0008, false, 4, &val) {
		t.Fatal("GICH window not on the bus")
	}
	if val != 0x99 {
		t.Fatalf("GICH read = %#x", val)
	}
}

// pageStore is a deferred access page's tracked backing store for the
// resolution tests.
type pageStore struct{ regs [arm.NumSysRegs]uint64 }

func (s *pageStore) Get(r arm.SysReg) uint64    { return s.regs[arm.StorageReg(r)] }
func (s *pageStore) Set(r arm.SysReg, v uint64) { s.regs[arm.StorageReg(r)] = v }

// trapCounter is an EL2 vector that counts the traps it takes.
type trapCounter struct{ n int }

func (h *trapCounter) HandleTrap(*arm.CPU, *arm.Exception) uint64 { h.n++; return 0 }

// TestNV2PageResolution switches VNCR_EL2 between two registered deferred
// access pages, an unregistered one and back, with NEVE enabled and
// disabled: every deferred access lands in the store VNCR_EL2 names at
// that moment, however the core resolved the previous one.
func TestNV2PageResolution(t *testing.T) {
	const (
		baseA  mem.Addr = 0x10_0000
		baseB  mem.Addr = 0x20_0000
		baseU  mem.Addr = 0x30_0000 // never registered
		reg             = arm.VTTBR_EL2
		hcrNV2          = arm.HCRNV | arm.HCRNV1 | arm.HCRNV2
	)
	if core.ResolvedRule(reg).Treatment != core.TreatVNCR {
		t.Fatalf("%s is not a deferred register", reg)
	}
	m := New(Config{CPUs: 1, Feat: arm.FeaturesV84()})
	c := m.CPUs[0]
	traps := &trapCounter{}
	c.Vector = traps
	var a, b pageStore
	m.RegisterNV2Page(baseA, &a)
	m.RegisterNV2Page(baseB, &b)
	rawU := core.Page{Base: baseU}.Slot(reg)

	c.SetReg(arm.HCR_EL2, hcrNV2)
	c.RunGuest(1, func() {
		steps := []struct {
			base   mem.Addr
			enable bool
			write  uint64 // 0: read only
		}{
			{baseA, true, 1}, {baseB, true, 2}, {baseA, false, 3},
			{baseA, true, 0}, {baseU, true, 4}, {baseB, true, 0},
			{baseB, false, 5}, {baseA, true, 6}, {baseU, true, 0},
		}
		want := map[mem.Addr]uint64{}
		wantTraps := 0
		for i, s := range steps {
			c.SetReg(arm.VNCR_EL2, core.MakeVNCR(s.base, s.enable))
			if s.write != 0 {
				c.MSR(reg, s.write)
				if s.enable {
					want[s.base] = s.write
				} else {
					wantTraps++
				}
			}
			if got := c.MRS(reg); s.enable && got != want[s.base] {
				t.Fatalf("step %d: read %#x through page %#x, want %#x", i, got, s.base, want[s.base])
			}
			if !s.enable {
				wantTraps++
			}
			if a.Get(reg) != want[baseA] || b.Get(reg) != want[baseB] || m.Mem.MustRead64(rawU) != want[baseU] {
				t.Fatalf("step %d: stores A=%#x B=%#x raw U=%#x, want %v", i, a.Get(reg), b.Get(reg), m.Mem.MustRead64(rawU), want)
			}
		}
		if traps.n != wantTraps {
			t.Fatalf("%d traps with NEVE disabled, want %d", traps.n, wantTraps)
		}
	})
}

// TestNV2UnregisteredPagePoisons checks that a deferred access to an
// unregistered page, which only raw memory backs, poisons the trace-JIT
// recording it happens in, while one to a registered page does not.
func TestNV2UnregisteredPagePoisons(t *testing.T) {
	m := New(Config{CPUs: 1, Feat: arm.FeaturesV84()})
	c := m.CPUs[0]
	c.Vector = &trapCounter{}
	var st pageStore
	m.RegisterNV2Page(0x10_0000, &st)
	j := jit.New(jit.Hooks{
		NumCPUs:      1,
		ClockState:   func(int) jit.ClockState { return c.JITClockState() },
		AdvanceClock: func(*jit.ClockDelta) {},
		Gen:          func() uint64 { return 0 },
		TLBGen:       func() uint64 { return 0 },
		Trace:        m.Trace,
		Arm:          func() {},
		Disarm:       func() {},
	})
	c.SetJIT(j)
	c.SetReg(arm.HCR_EL2, arm.HCRNV|arm.HCRNV1|arm.HCRNV2)
	for i, tc := range []struct {
		base    mem.Addr
		promote bool
	}{{0x10_0000, true}, {0x30_0000, false}} {
		exc := [jit.ExcWords]uint64{uint64(i + 1)}
		for {
			if _, s := j.Dispatch(0, &exc); s == jit.Record {
				break
			}
		}
		_, before := j.Entries()
		c.SetReg(arm.VNCR_EL2, core.MakeVNCR(tc.base, true))
		c.RunGuest(1, func() { c.MSR(arm.VTTBR_EL2, 7) })
		j.EndRecord(0)
		if _, after := j.Entries(); (after > before) != tc.promote {
			t.Fatalf("page %#x: recording promoted = %v, want %v", uint64(tc.base), after > before, tc.promote)
		}
	}
}

// TestNV2PageReregistration pins that a deferred access page keeps its
// store: registering it again with the same store is harmless, with a
// different one panics.
func TestNV2PageReregistration(t *testing.T) {
	m := New(Config{CPUs: 1, Feat: arm.FeaturesV84()})
	var a, b pageStore
	m.RegisterNV2Page(0x10_0000, &a)
	m.RegisterNV2Page(0x10_0000, &a)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a page with a different store did not panic")
		}
	}()
	m.RegisterNV2Page(0x10_0000, &b)
}
