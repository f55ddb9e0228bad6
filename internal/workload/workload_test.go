package workload

import (
	"testing"
	"testing/quick"
)

// fakeGuest counts events and charges configurable costs.
type fakeGuest struct {
	cycles  uint64
	hcCost  uint64
	devCost uint64
	ipiCost uint64
	irqCost uint64
	hc      int
	dev     int
	ipi     int
	irq     int
}

func (f *fakeGuest) Work(n uint64) { f.cycles += n }
func (f *fakeGuest) Hypercall()    { f.hc++; f.cycles += f.hcCost }
func (f *fakeGuest) DeviceRead(off uint64) uint64 {
	f.dev++
	f.cycles += f.devCost
	return 1
}
func (f *fakeGuest) SendIPI(target, intid int) { f.ipi++; f.cycles += f.ipiCost }
func (f *fakeGuest) Cycles() uint64            { return f.cycles }

// Platform side.
func (f *fakeGuest) InjectDeviceIRQ() {
	f.irq++
	f.cycles += f.irqCost
}
func (f *fakeGuest) ServicePeer()  {}
func (f *fakeGuest) HasPeer() bool { return true }

func TestEventRates(t *testing.T) {
	p := Profile{Name: "t", Ops: 100, OpWork: 1000,
		HypercallsPerOp: 0.5, RXPerOp: 0.25, TXPerOp: 1, IPIPerOp: 0.1}
	g := &fakeGuest{hcCost: 10, devCost: 10, ipiCost: 10, irqCost: 10}
	res := p.Run(g, g, g)
	if g.hc != 50 || res.Hypercalls != 50 {
		t.Errorf("hypercalls = %d/%d, want 50", g.hc, res.Hypercalls)
	}
	if g.irq != 25 || res.RXIRQs != 25 {
		t.Errorf("rx = %d/%d, want 25", g.irq, res.RXIRQs)
	}
	if g.dev != 100 || res.Kicks != 100 {
		t.Errorf("kicks = %d/%d, want 100 (no suppression configured)", g.dev, res.Kicks)
	}
	if g.ipi < 9 || g.ipi > 10 || res.IPIs != uint64(g.ipi) {
		t.Errorf("ipis = %d/%d, want ~10 (fractional accumulation)", g.ipi, res.IPIs)
	}
	if res.Cycles == 0 {
		t.Error("no cycles measured")
	}
}

func TestNotificationSuppression(t *testing.T) {
	// With an expensive kick and a busy backend, most notifications are
	// suppressed; with a cheap kick and idle backend, every op kicks.
	slow := Profile{Ops: 100, OpWork: 1000, TXPerOp: 1, BackendWork: 5000}
	g := &fakeGuest{devCost: 20_000}
	resSlow := slow.Run(g, g, g)
	if resSlow.Kicks >= 100 {
		t.Errorf("slow kicks = %d, want suppression", resSlow.Kicks)
	}
	g2 := &fakeGuest{devCost: 100}
	fast := Profile{Ops: 100, OpWork: 1000, TXPerOp: 1, BackendWork: 0}
	resFast := fast.Run(g2, g2, g2)
	if resFast.Kicks != 100 {
		t.Errorf("fast kicks = %d, want 100", resFast.Kicks)
	}
}

func TestSuppressionMoreEffectiveWhenHandlingSlower(t *testing.T) {
	// The paper's anomaly mechanism: slower kick handling means bigger
	// batches, so fewer notifications (Section 7.2).
	p := Profile{Ops: 200, OpWork: 1000, TXPerOp: 1, BackendWork: 2000}
	cheap := &fakeGuest{devCost: 1000}
	rc := p.Run(cheap, cheap, cheap)
	costly := &fakeGuest{devCost: 30_000}
	re := p.Run(costly, costly, costly)
	if re.Kicks >= rc.Kicks {
		t.Errorf("expensive-kick kicks = %d, cheap-kick kicks = %d: want fewer when slower",
			re.Kicks, rc.Kicks)
	}
}

func TestRXCoalescing(t *testing.T) {
	p := Profile{Ops: 100, OpWork: 1000, RXPerOp: 1, RXCoalesce: 3000}
	g := &fakeGuest{irqCost: 10_000}
	res := p.Run(g, g, g)
	if res.RXIRQs >= 100 {
		t.Errorf("rx = %d, want coalescing", res.RXIRQs)
	}
	// Without coalescing every op interrupts.
	p.RXCoalesce = 0
	g2 := &fakeGuest{irqCost: 10_000}
	res2 := p.Run(g2, g2, g2)
	if res2.RXIRQs != 100 {
		t.Errorf("uncoalesced rx = %d, want 100", res2.RXIRQs)
	}
}

func TestWakeupIPIsOnlyWhenStalled(t *testing.T) {
	p := Profile{Ops: 100, OpWork: 1000, TXPerOp: 1, IPIPerOp: 1, WakeThreshold: 5000}
	fast := &fakeGuest{devCost: 1000}
	if res := p.Run(fast, fast, fast); res.IPIs != 0 {
		t.Errorf("fast handling sent %d wakeups, want 0", res.IPIs)
	}
	slow := &fakeGuest{devCost: 50_000}
	if res := p.Run(slow, slow, slow); res.IPIs == 0 {
		t.Error("slow handling sent no wakeups")
	}
}

func TestScaled(t *testing.T) {
	p := Profile{OpWork: 900, BackendWork: 300, RXCoalesce: 90, WakeThreshold: 150, RXPerOp: 1}
	s := p.Scaled(3)
	if s.OpWork != 300 || s.BackendWork != 100 || s.RXCoalesce != 30 || s.WakeThreshold != 50 {
		t.Errorf("Scaled = %+v", s)
	}
	if s.RXPerOp != 1 {
		t.Error("external event rate must not scale")
	}
	if z := p.Scaled(0); z.OpWork != 900 {
		t.Error("Scaled(0) must be identity")
	}
}

func TestNativeBaseline(t *testing.T) {
	n := &Native{}
	p := Profile{Ops: 10, OpWork: 1000, HypercallsPerOp: 1, RXPerOp: 1, TXPerOp: 1}
	res := p.Run(n, n, n)
	want := uint64(10*1000 + 10*nativeHypercall + 10*nativeIRQ + 10*nativeDeviceIO + 10*200)
	if res.Cycles != want {
		t.Errorf("native cycles = %d, want %d", res.Cycles, want)
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 10 {
		t.Fatalf("profiles = %d, want the 10 application benchmarks of Table 8", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || p.Description == "" {
			t.Errorf("profile %+v missing name/description", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.Ops <= 0 || p.OpWork == 0 {
			t.Errorf("profile %s has no work", p.Name)
		}
	}
	for _, want := range []string{"kernbench", "hackbench", "SPECjvm2008", "TCP_RR",
		"TCP_STREAM", "TCP_MAERTS", "Apache", "Nginx", "Memcached", "MySQL"} {
		if !seen[want] {
			t.Errorf("missing Table 8 workload %s", want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("Memcached"); !ok || p.Name != "Memcached" {
		t.Fatal("ProfileByName(Memcached) failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("ProfileByName(nope) succeeded")
	}
}

func TestQuickRatesNeverExceedOps(t *testing.T) {
	f := func(rate8 uint8, ops8 uint8) bool {
		rate := float64(rate8%100) / 100
		ops := int(ops8%50) + 1
		p := Profile{Ops: ops, OpWork: 100, HypercallsPerOp: rate}
		g := &fakeGuest{}
		res := p.Run(g, g, g)
		want := uint64(rate * float64(ops))
		// Fractional accumulation may round down by at most one.
		return res.Hypercalls <= want+1 && res.Hypercalls+1 >= want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
