package platform

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/nevesim/neve/internal/fault"
)

func TestRegistrySpecsValidate(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range Registry() {
		if spec.Name == "" {
			t.Errorf("registry spec with empty name: %+v", spec)
		}
		if seen[spec.Name] {
			t.Errorf("duplicate registry name %q", spec.Name)
		}
		seen[spec.Name] = true
		if err := spec.Validate(); err != nil {
			t.Errorf("registry spec %q does not validate: %v", spec.Name, err)
		}
	}
}

func TestValidateRejectsIllegalCombinations(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"neve on v8.3", Spec{Nesting: 2, NEVE: true, Feat: FeatV83}, "v8.4"},
		{"neve without guest hypervisor", Spec{Nesting: 1, NEVE: true}, "nesting=1"},
		{"ablation without neve", Spec{Nesting: 2, Ablation: &Ablation{}}, "neve=false"},
		{"nested on v8.0 without paravirt", Spec{Nesting: 2, Feat: FeatV80}, "Section 2"},
		{"paravirt on NV hardware", Spec{Nesting: 2, Feat: FeatV83, Paravirt: true}, "pre-NV"},
		{"paravirt on a plain VM", Spec{Nesting: 1, Feat: FeatV80, Paravirt: true}, "nesting"},
		{"hostvhe without VHE hardware", Spec{Nesting: 1, Feat: FeatV80, HostVHE: true}, "v8.1"},
		{"guestvhe without guest hypervisor", Spec{Nesting: 1, GuestVHE: true}, "nesting=1"},
		{"optvhe without guestvhe", Spec{Nesting: 2, NEVE: true, OptimizedVHE: true}, "guestvhe"},
		{"nesting out of range", Spec{Nesting: 4}, "out of range"},
		{"negative cpus", Spec{CPUs: -1}, "CPU count"},
		{"cpus above machine width", Spec{CPUs: MaxCPUs + 1}, "machine width"},
		{"x86 recursive", Spec{Arch: X86, Nesting: 3}, "recursive"},
		{"x86 neve", Spec{Arch: X86, Nesting: 2, NEVE: true}, "ARM axis"},
		{"x86 vhe", Spec{Arch: X86, Nesting: 2, GuestVHE: true}, "ARM axis"},
		{"x86 feat", Spec{Arch: X86, Feat: FeatV84}, "ARM axis"},
		{"x86 gicv2", Spec{Arch: X86, GICv2: true}, "ARM axis"},
		{"x86 paravirt", Spec{Arch: X86, Paravirt: true}, "ARM axis"},
		{"fault plan that never fires", Spec{Faults: fault.Plan{Seed: 1}}, "never fire"},
		{"fault plan with negative count", Spec{Faults: fault.Plan{Every: 10, Count: -1}}, "negative"},
		{"fault plan with unknown kind", Spec{Faults: fault.Plan{Every: 10, Kinds: []fault.Kind{fault.Kind(99)}}}, "unknown fault kind"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, err := Build(tc.spec); err == nil {
			t.Errorf("%s: Build accepted an invalid spec", tc.name)
		}
	}
}

// TestValidateNeverPanics sweeps the whole axis grid: every combination —
// legal or not — must come back from Validate as a nil or descriptive
// error, never a panic, and every combination Validate accepts must
// actually build.
func TestValidateNeverPanics(t *testing.T) {
	check := func(spec Spec) {
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("Validate/Build panicked on %+v: %v", spec, v)
			}
		}()
		if err := spec.Validate(); err != nil {
			if err.Error() == "" {
				t.Errorf("empty error message for %+v", spec)
			}
			return
		}
		if _, err := Build(spec); err != nil {
			t.Errorf("Validate accepted %+v but Build rejected it: %v", spec, err)
		}
	}
	feats := []FeatureLevel{FeatDefault, FeatV80, FeatV81, FeatV83, FeatV84}
	for _, arch := range []Arch{ARM, X86} {
		for _, feat := range feats {
			for nesting := 0; nesting <= 3; nesting++ {
				for flags := 0; flags < 1<<6; flags++ {
					check(Spec{
						Arch:         arch,
						Feat:         feat,
						Nesting:      nesting,
						HostVHE:      flags&1 != 0,
						GuestVHE:     flags&2 != 0,
						NEVE:         flags&4 != 0,
						Paravirt:     flags&8 != 0,
						GICv2:        flags&16 != 0,
						OptimizedVHE: flags&32 != 0,
					})
				}
			}
		}
	}
}

// TestCPUWidthErrorTyped: callers sizing sweeps programmatically can
// detect the width limit with errors.As and read the bound back.
func TestCPUWidthErrorTyped(t *testing.T) {
	err := Spec{CPUs: 100}.Validate()
	var we *CPUWidthError
	if !errors.As(err, &we) {
		t.Fatalf("Validate returned %T (%v), want *CPUWidthError", err, err)
	}
	if we.CPUs != 100 || we.Max != MaxCPUs {
		t.Fatalf("CPUWidthError = %+v", we)
	}
	if err := (Spec{CPUs: MaxCPUs}).Validate(); err != nil {
		t.Fatalf("Validate rejected the maximum width: %v", err)
	}
}

func TestParseRegistryNames(t *testing.T) {
	spec, err := Parse("neve-vhe")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.NEVE || !spec.GuestVHE || spec.Nesting != 2 {
		t.Errorf("Parse(neve-vhe) = %+v", spec)
	}
	if _, err := Parse("no-such-spec"); err == nil {
		t.Error("Parse accepted an unknown name")
	}
}

func TestParseAxisLists(t *testing.T) {
	spec, err := Parse("arch=arm,feat=v8.4,nesting=2,neve,gicv2,hostvhe,cpus=4,ram=32")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Arch: ARM, Feat: FeatV84, Nesting: 2, NEVE: true,
		GICv2: true, HostVHE: true, CPUs: 4, RAMSize: 32 << 20}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("Parse = %+v, want %+v", spec, want)
	}

	if _, err := Parse("arch=arm,bogus=1"); err == nil {
		t.Error("Parse accepted an unknown axis")
	}
	if _, err := Parse("nesting=two"); err == nil {
		t.Error("Parse accepted a non-numeric nesting")
	}
	if _, err := Parse("arch=x86,neve"); err == nil {
		t.Error("Parse accepted an invalid combination")
	}
	if _, err := Parse("ablation=defer+bogus,nesting=2,neve"); err == nil {
		t.Error("Parse accepted an unknown ablation mechanism")
	}
	if _, err := Parse("jit=3"); err == nil {
		t.Error("Parse accepted a numeric jit value")
	}
}

// TestAxesRoundTrip: every registry spec's canonical axis rendering parses
// back to the same spec (modulo the name).
func TestAxesRoundTrip(t *testing.T) {
	for _, spec := range Registry() {
		parsed, err := Parse(spec.Axes())
		if err != nil {
			t.Errorf("%s: Parse(%q): %v", spec.Name, spec.Axes(), err)
			continue
		}
		want := spec
		want.Name = ""
		if want.Nesting == 0 {
			want.Nesting = 1
		}
		if !reflect.DeepEqual(parsed, want) {
			t.Errorf("%s: round trip %q = %+v, want %+v", spec.Name, spec.Axes(), parsed, want)
		}
	}
}

func TestBuildRegistry(t *testing.T) {
	for _, spec := range Registry() {
		p, err := Build(spec)
		if err != nil {
			t.Errorf("Build(%s): %v", spec.Name, err)
			continue
		}
		if p.Spec().Name != spec.Name {
			t.Errorf("Build(%s).Spec().Name = %q", spec.Name, p.Spec().Name)
		}
		switch spec.Arch {
		case ARM:
			if p.ARM() == nil || p.X86() != nil {
				t.Errorf("Build(%s): ARM platform exposes wrong stacks", spec.Name)
			}
		case X86:
			if p.X86() == nil || p.ARM() != nil {
				t.Errorf("Build(%s): x86 platform exposes wrong stacks", spec.Name)
			}
		}
		if p.Trace() == nil {
			t.Errorf("Build(%s): nil trace collector", spec.Name)
		}
	}
}

// TestBuildOffMatrix exercises a combination outside the paper's seven
// columns end to end: GICv2 + VHE host hypervisor + NEVE guest hypervisor.
func TestBuildOffMatrix(t *testing.T) {
	spec, err := Parse("gicv2-hostvhe-neve")
	if err != nil {
		t.Fatal(err)
	}
	p := MustBuild(spec)
	var cycles uint64
	p.RunGuest(0, func(g Guest) {
		before := g.Cycles()
		g.Hypercall()
		cycles = g.Cycles() - before
	})
	if cycles == 0 {
		t.Error("off-matrix hypercall took zero cycles")
	}
	if p.Trace().Total() == 0 {
		t.Error("off-matrix hypercall trapped zero times")
	}
}

// TestLevelCycles checks the per-level cycle attribution both platforms
// expose: after a nested hypercall, cycles must be attributed to the host
// hypervisor (level 0) and above, and sum to the core's cycle counter.
func TestLevelCycles(t *testing.T) {
	for _, name := range []string{"neve", "x86-nested"} {
		p := MustBuild(MustLookup(name))
		p.RunGuest(0, func(g Guest) { g.Hypercall() })
		lv := p.LevelCycles(0)
		if len(lv) == 0 {
			t.Fatalf("%s: no level attribution", name)
		}
		var sum uint64
		nonzero := 0
		for _, c := range lv {
			sum += c
			if c != 0 {
				nonzero++
			}
		}
		if nonzero < 2 {
			t.Errorf("%s: levels with cycles = %d, want >= 2 (host + guest): %v", name, nonzero, lv)
		}
		if sum != p.CPUCycles(0) {
			t.Errorf("%s: level cycles sum %d != core cycles %d (%v)", name, sum, p.CPUCycles(0), lv)
		}
	}
}

func TestLookupCopiesAblation(t *testing.T) {
	a, _ := Lookup("neve-defer")
	a.Ablation.DisableDefer = true
	b, _ := Lookup("neve-defer")
	if b.Ablation.DisableDefer {
		t.Error("mutating a looked-up spec's Ablation changed the registry")
	}
}
