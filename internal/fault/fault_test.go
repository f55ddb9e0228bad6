package fault

import (
	"errors"
	"strings"
	"testing"

	"github.com/nevesim/neve/internal/arm"
)

func TestParsePlanRoundTrip(t *testing.T) {
	cases := []string{
		"off",
		"seed=42,every=100",
		"seed=7,every=50,count=3",
		"seed=0,every=1,kinds=irq+vncr",
		"seed=1,every=10,count=2,kinds=irq+vncr+flip+device",
	}
	for _, s := range cases {
		p, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("ParsePlan(%q).String() = %q", s, got)
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		if again.String() != p.String() {
			t.Errorf("round trip diverged: %q vs %q", again.String(), p.String())
		}
	}
}

func TestParsePlanRejects(t *testing.T) {
	for _, s := range []string{
		"seed=42",                   // never fires
		"every=abc",                 // bad number
		"every=-1",                  // bad number
		"bogus=1",                   // unknown key
		"every=1,kinds=gamma-ray",   // unknown kind
		"every=1,every=2",           // duplicate key
		"kinds",                     // missing value
		"seed=1,every=1,kinds=irq+", // trailing empty kind
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds collided on the first draw")
	}
	// Cheap distribution sanity: Intn covers its range.
	seen := map[int]bool{}
	r := NewRand(5)
	for i := 0; i < 200; i++ {
		seen[r.Intn(4)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("Intn(4) covered %d values", len(seen))
	}
}

func TestWatchdogTrapBudget(t *testing.T) {
	w := &Watchdog{MaxTraps: 5}
	for i := 0; i < 5; i++ {
		w.OnTrap()
	}
	defer func() {
		v := recover()
		se, ok := v.(*SimError)
		if !ok {
			t.Fatalf("recovered %T, want *SimError", v)
		}
		if se.Kind != ErrTrapStorm || se.Traps != 6 {
			t.Fatalf("SimError = %+v", se)
		}
		if !strings.Contains(se.Msg, "trap budget 5 exceeded") {
			t.Fatalf("Msg = %q", se.Msg)
		}
	}()
	w.OnTrap()
	t.Fatal("budget overrun did not abort")
}

func TestWatchdogStepBudget(t *testing.T) {
	w := &Watchdog{MaxSteps: 100}
	w.OnTick(100)
	defer func() {
		se, ok := recover().(*SimError)
		if !ok || se.Kind != ErrStepBudget {
			t.Fatalf("recovered %+v", se)
		}
	}()
	w.OnTick(1)
	t.Fatal("step overrun did not abort")
}

// TestWatchdogAdmit pins the replay side of the budgets: Admit charges a
// batch of traps and steps only if all of it fits, exact fits included,
// and a refused batch charges nothing.
func TestWatchdogAdmit(t *testing.T) {
	w := &Watchdog{MaxTraps: 10, MaxSteps: 100}
	w.OnTrap()
	w.OnTick(10)
	for _, tc := range []struct {
		traps, steps uint64
		ok           bool
	}{
		{10, 90, false}, // one trap too many
		{9, 91, false},  // one step too many
		{9, 90, true},   // exact fit
		{0, 0, true},
		{1, 0, false},
		{0, 1, false},
	} {
		before := *w
		if got := w.Admit(tc.traps, tc.steps); got != tc.ok {
			t.Fatalf("Admit(%d, %d) at %d/%d = %v, want %v", tc.traps, tc.steps, w.traps, w.steps, got, tc.ok)
		}
		want := before
		if tc.ok {
			want.traps += tc.traps
			want.steps += tc.steps
		}
		if *w != want {
			t.Fatalf("Admit(%d, %d) left %+v, want %+v", tc.traps, tc.steps, *w, want)
		}
	}
	if tr, st := w.Used(); tr != 10 || st != 100 {
		t.Fatalf("Used() = %d, %d; want 10, 100", tr, st)
	}
	if u := (&Watchdog{}); !u.Admit(1<<40, 1<<40) {
		t.Fatal("an unlimited watchdog refused a batch")
	}
}

// TestInjectorAdmit pins the replay side of a fault plan: Admit counts a
// batch of traps only if none of them would be the next firing trap while
// injections remain, and a refused batch charges nothing. In a Combined
// budget a refusal by either side charges neither counter.
func TestInjectorAdmit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   Plan
		wd     *Watchdog // nil: the injector alone
		before int       // traps taken before the batch
		traps  uint64
		ok     bool
	}{
		{"ends before the firing trap", Plan{Every: 10, Count: 2}, nil, 3, 6, true},
		{"crosses the firing trap", Plan{Every: 10, Count: 2}, nil, 3, 7, false},
		{"count spent", Plan{Every: 10, Count: 2}, nil, 20, 100, true},
		{"unlimited count crosses", Plan{Every: 10}, nil, 20, 10, false},
		{"unlimited count fits", Plan{Every: 10}, nil, 20, 9, true},
		{"combined, watchdog refuses", Plan{Every: 10, Count: 2}, &Watchdog{MaxTraps: 5}, 3, 3, false},
		{"combined, injector refuses", Plan{Every: 10, Count: 2}, &Watchdog{MaxTraps: 100}, 3, 7, false},
		{"combined admits", Plan{Every: 10, Count: 2}, &Watchdog{MaxTraps: 100}, 3, 6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewInjector(tc.plan, &nullEnv{})
			var b interface {
				OnTrap()
				Admit(traps, steps uint64) bool
			} = in
			if tc.wd != nil {
				b = Combined{W: tc.wd, In: in}
			}
			for i := 0; i < tc.before; i++ {
				b.OnTrap()
			}
			injected := in.Injected()
			if got := b.Admit(tc.traps, 0); got != tc.ok {
				t.Fatalf("Admit(%d) after %d traps = %v, want %v", tc.traps, tc.before, got, tc.ok)
			}
			want := uint64(tc.before)
			if tc.ok {
				want += tc.traps
			}
			if tr, _ := in.Used(); tr != want {
				t.Fatalf("injector counted %d traps, want %d", tr, want)
			}
			if tc.wd != nil && tc.wd.Traps() != want {
				t.Fatalf("watchdog counted %d traps, want %d", tc.wd.Traps(), want)
			}
			if in.Injected() != injected {
				t.Fatal("Admit applied a fault")
			}
		})
	}
}

func TestWatchdogUnlimitedNeverFires(t *testing.T) {
	w := &Watchdog{}
	for i := 0; i < 10000; i++ {
		w.OnTrap()
		w.OnTick(1000)
	}
	if w.Traps() != 10000 {
		t.Fatalf("traps = %d", w.Traps())
	}
}

func TestRecoverPassesThroughSimError(t *testing.T) {
	in := &SimError{Kind: ErrTrapStorm, Msg: "x"}
	if out := Recover(in); out != in {
		t.Fatal("watchdog SimError was re-wrapped")
	}
}

func TestRecoverUndefError(t *testing.T) {
	u := &arm.UndefError{Reg: arm.HCR_EL2, EL: arm.EL1}
	se := Recover(u)
	if se.Kind != ErrPanic {
		t.Fatalf("kind = %v", se.Kind)
	}
	if se.Reg != arm.HCR_EL2.String() {
		t.Fatalf("Reg = %q", se.Reg)
	}
	if se.Msg != u.Error() {
		t.Fatalf("Msg = %q", se.Msg)
	}
}

func TestRecoverArbitraryPanicCarriesStack(t *testing.T) {
	var se *SimError
	func() {
		defer func() { se = Recover(recover()) }()
		deliberatePanic()
	}()
	if se.Kind != ErrPanic || se.Msg != "boom" {
		t.Fatalf("SimError = %+v", se)
	}
	if !strings.Contains(se.Stack, "deliberatePanic") {
		t.Fatalf("stack lost the panicking frame:\n%s", se.Stack)
	}
	if strings.Contains(se.Stack, "debug.Stack") {
		t.Fatalf("stack kept the recovery machinery:\n%s", se.Stack)
	}
}

func deliberatePanic() { panic("boom") }

func TestRecoverError(t *testing.T) {
	se := Recover(errors.New("disk on fire"))
	if se.Msg != "disk on fire" {
		t.Fatalf("Msg = %q", se.Msg)
	}
}

func TestDiagnosticMentionsEverything(t *testing.T) {
	se := &SimError{
		Kind: ErrTrapStorm, CPU: 1, Level: 2, Cycle: 12345,
		Reg: "VTTBR_EL2", Traps: 201, Steps: 9000,
		Msg:          "trap budget 200 exceeded",
		InjectionLog: []string{"trap 100: spurious SPI 53"},
	}
	d := se.Diagnostic()
	for _, want := range []string{
		"trap-storm", "cpu1", "level 2", "cycle 12345",
		"VTTBR_EL2", "201 traps", "9000 guest steps",
		"spurious SPI 53", "trap budget 200 exceeded",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("Diagnostic missing %q:\n%s", want, d)
		}
	}
}

type nullEnv struct{ applied []Kind }

func (e *nullEnv) SpuriousIRQ(r *Rand) (string, bool) {
	e.applied = append(e.applied, SpuriousIRQ)
	return "irq", true
}
func (e *nullEnv) CorruptVNCR(r *Rand) (string, bool) { return "", false }
func (e *nullEnv) FlipGuestBit(r *Rand) (string, bool) {
	e.applied = append(e.applied, PageFlip)
	return "flip", true
}
func (e *nullEnv) DeviceNoise(r *Rand) (string, bool) { return "", false }

func TestInjectorScheduleAndFallThrough(t *testing.T) {
	env := &nullEnv{}
	in := NewInjector(Plan{Seed: 3, Every: 10, Count: 4}, env)
	for i := 0; i < 100; i++ {
		in.OnTrap()
	}
	if in.Injected() != 4 {
		t.Fatalf("injected %d, want 4 (count cap)", in.Injected())
	}
	if len(env.applied) != 4 {
		t.Fatalf("applied %v", env.applied)
	}
	// VNCR and device kinds are inapplicable in this env: the injector
	// must have fallen through to an applicable kind every time.
	for _, k := range env.applied {
		if k != SpuriousIRQ && k != PageFlip {
			t.Fatalf("inapplicable kind %v applied", k)
		}
	}
	log := in.Log()
	if len(log) != 4 || !strings.HasPrefix(log[0], "trap 10: ") {
		t.Fatalf("log = %v", log)
	}
}

func TestInjectorDeterministicReplay(t *testing.T) {
	run := func() []string {
		env := &nullEnv{}
		in := NewInjector(Plan{Seed: 42, Every: 7}, env)
		for i := 0; i < 500; i++ {
			in.OnTrap()
		}
		return in.Log()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("log lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestInjectorInactivePlanDoesNothing(t *testing.T) {
	env := &nullEnv{}
	in := NewInjector(Plan{}, env)
	for i := 0; i < 1000; i++ {
		in.OnTrap()
	}
	if in.Injected() != 0 || len(env.applied) != 0 {
		t.Fatal("inactive plan injected")
	}
}
