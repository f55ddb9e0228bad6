// Package platform is the declarative configuration layer for the
// reproduction's virtualization stacks. A Spec names a point in the
// evaluation's configuration space — architecture, feature revision,
// nesting depth, hypervisor builds, NEVE ablation subset, interrupt
// controller interface, vCPU count — and Build assembles the simulated
// hardware and hypervisors for it, validating illegal axis combinations
// up front instead of letting them surface as deep panics or silent
// misconfiguration.
//
// The paper's evaluation is a seven-column matrix (Tables 1/6/7,
// Figure 2); the Registry names those columns plus the ablation,
// optimized-VHE and recursive variants. Every consumer — the bench
// harness, cmd/nevesim, cmd/nevetrace, the examples — builds stacks
// through this package only.
package platform

import (
	"fmt"
	"strings"

	"github.com/nevesim/neve/internal/fault"
)

// Arch selects the simulated architecture.
type Arch uint8

const (
	// ARM is the simulated ARMv8 server (the paper's platform).
	ARM Arch = iota
	// X86 is the VT-x comparator with VMCS shadowing.
	X86
)

func (a Arch) String() string {
	switch a {
	case ARM:
		return "arm"
	case X86:
		return "x86"
	default:
		return fmt.Sprintf("arch(%d)", uint8(a))
	}
}

// FeatureLevel is the simulated ARM architecture revision.
type FeatureLevel uint8

const (
	// FeatDefault resolves to V83, or V84 when the spec enables NEVE.
	FeatDefault FeatureLevel = iota
	// FeatV80 is the paper's evaluation hardware: no VHE, no NV.
	FeatV80
	// FeatV81 adds VHE.
	FeatV81
	// FeatV83 adds architectural nested virtualization (FEAT_NV).
	FeatV83
	// FeatV84 adds NEVE (FEAT_NV2).
	FeatV84
)

func (f FeatureLevel) String() string {
	switch f {
	case FeatDefault:
		return "default"
	case FeatV80:
		return "v8.0"
	case FeatV81:
		return "v8.1"
	case FeatV83:
		return "v8.3"
	case FeatV84:
		return "v8.4"
	default:
		return fmt.Sprintf("feat(%d)", uint8(f))
	}
}

// Ablation selectively disables NEVE's three mechanisms (Section 6:
// deferral to the deferred access page, EL2-to-EL1 redirection, cached
// copies). The zero value is full NEVE.
type Ablation struct {
	DisableDefer    bool
	DisableRedirect bool
	DisableCached   bool
}

// Spec declares one stack configuration. The zero value (with Arch ARM)
// is a plain two-core ARMv8.3 VM; Build applies the remaining defaults.
type Spec struct {
	// Name labels the spec in the Registry and in output ("" for ad-hoc
	// axis combinations).
	Name string
	// Arch selects the simulated architecture.
	Arch Arch
	// Feat is the ARM architecture revision (FeatDefault: v8.3, or v8.4
	// when NEVE is set). Must be FeatDefault on x86.
	Feat FeatureLevel
	// Nesting is the virtualization depth: 1 is a plain VM, 2 a nested VM
	// under a guest hypervisor, 3 the recursive L3 configuration of
	// Section 6.2. 0 defaults to 1.
	Nesting int
	// HostVHE runs the host hypervisor as a VHE build (entirely in EL2).
	HostVHE bool
	// GuestVHE selects a VHE guest hypervisor (nesting >= 2).
	GuestVHE bool
	// NEVE makes the guest hypervisor use NEVE; requires v8.4 hardware.
	NEVE bool
	// Ablation disables a subset of NEVE's mechanisms; nil is full NEVE.
	// Requires NEVE.
	Ablation *Ablation
	// Paravirt runs the guest hypervisor paravirtualized on pre-NV
	// hardware: its privileged instructions are hvc-rewritten at the same
	// trap cost as the architectural v8.3 traps (the paper's methodology,
	// Sections 3-5; trap-cost interchangeability is validated by
	// `nevesim trapcost`). Only meaningful with Feat v8.0/v8.1.
	Paravirt bool
	// GICv2 selects the memory-mapped GIC hypervisor control interface
	// (the paper's hardware) instead of the GICv3 system registers.
	GICv2 bool
	// OptimizedVHE selects the optimized VHE guest hypervisor of Dall et
	// al. [16] (Section 7.1); requires GuestVHE.
	OptimizedVHE bool
	// CPUs is the core count; 0 defaults to 2.
	CPUs int
	// RAMSize is the L1 VM's RAM in bytes; 0 defaults to the stack's
	// choice (16 MiB, 64 MiB for recursive stacks).
	RAMSize uint64
	// RecordTrace retains individual trap events for trace inspection.
	RecordTrace bool
	// NoShadowing disables VMCS shadowing on x86 (the paper's x86
	// hardware has it, so the default is on).
	NoShadowing bool
	// Faults, when active, attaches a seeded fault injector
	// (internal/fault) to the built platform. The zero Plan — every
	// registry entry — installs nothing, keeping the paper goldens
	// byte-identical. A run-harness attachment, not a hardware axis: not
	// rendered by Axes (set it with nevesim run -faults or directly).
	Faults fault.Plan
	// MaxTraps and MaxSteps, when non-zero, attach a trap-storm watchdog
	// with those budgets: a run exceeding either aborts with a
	// *fault.SimError diagnostic instead of livelocking. Run-harness
	// attachments like Faults.
	MaxTraps uint64
	MaxSteps uint64
	// JITOff disables the trace-JIT layer (internal/jit), which is on by
	// default for plain ARM runs: hot trap sequences are compiled into
	// super-ops and replayed with byte-identical observable output. The
	// layer self-disables (regardless of this axis) when trap recording,
	// fault injection, or a watchdog is attached.
	JITOff bool
}

// MaxCPUs is the widest machine the simulator models: the SMP scale-out
// sweep's upper bound (the paper's hardware had 8 cores; 64 covers the
// scaling projection).
const MaxCPUs = 64

// CPUWidthError reports a Spec whose CPUs axis exceeds the widest machine
// the simulator models (MaxCPUs).
type CPUWidthError struct {
	CPUs int
	Max  int
}

func (e *CPUWidthError) Error() string {
	return fmt.Sprintf("platform: %d CPUs exceeds the maximum machine width %d", e.CPUs, e.Max)
}

// featOrDefault resolves FeatDefault against the NEVE axis.
func (s Spec) featOrDefault() FeatureLevel {
	if s.Feat != FeatDefault {
		return s.Feat
	}
	if s.NEVE {
		return FeatV84
	}
	return FeatV83
}

// hasNV reports whether the revision implements FEAT_NV.
func (f FeatureLevel) hasNV() bool { return f == FeatV83 || f == FeatV84 }

// hasVHE reports whether the revision implements VHE.
func (f FeatureLevel) hasVHE() bool { return f >= FeatV81 }

// Validate checks the spec for illegal axis combinations. Build calls it;
// callers constructing ad-hoc specs can call it early for better errors.
func (s Spec) Validate() error {
	if s.Arch != ARM && s.Arch != X86 {
		return fmt.Errorf("platform: unknown arch %d", s.Arch)
	}
	if s.CPUs < 0 {
		return fmt.Errorf("platform: negative CPU count %d", s.CPUs)
	}
	if s.CPUs > MaxCPUs {
		return &CPUWidthError{CPUs: s.CPUs, Max: MaxCPUs}
	}
	if s.Nesting < 0 || s.Nesting > 3 {
		return fmt.Errorf("platform: nesting depth %d out of range (1..3)", s.Nesting)
	}
	nesting := s.Nesting
	if nesting == 0 {
		nesting = 1
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("platform: %w", err)
	}
	if s.Arch == X86 {
		return s.validateX86(nesting)
	}
	return s.validateARM(nesting)
}

func (s Spec) validateX86(nesting int) error {
	switch {
	case s.Feat != FeatDefault:
		return fmt.Errorf("platform: feat=%s is an ARM axis; not valid on x86", s.Feat)
	case s.HostVHE, s.GuestVHE:
		return fmt.Errorf("platform: VHE is an ARM axis; not valid on x86")
	case s.NEVE:
		return fmt.Errorf("platform: NEVE is an ARM axis; not valid on x86")
	case s.Ablation != nil:
		return fmt.Errorf("platform: NEVE ablation is an ARM axis; not valid on x86")
	case s.Paravirt:
		return fmt.Errorf("platform: paravirt rewriting is an ARM axis; not valid on x86")
	case s.GICv2:
		return fmt.Errorf("platform: GICv2 is an ARM axis; not valid on x86")
	case s.OptimizedVHE:
		return fmt.Errorf("platform: the optimized VHE hypervisor is an ARM axis; not valid on x86")
	case nesting > 2:
		return fmt.Errorf("platform: x86 recursive (L3) virtualization is not modeled")
	}
	return nil
}

func (s Spec) validateARM(nesting int) error {
	feat := s.featOrDefault()
	if s.NEVE && !(feat == FeatV84) {
		return fmt.Errorf("platform: NEVE requires v8.4 (FEAT_NV2) hardware, spec has feat=%s", feat)
	}
	if s.Ablation != nil && !s.NEVE {
		return fmt.Errorf("platform: NEVE ablation subset set but neve=false")
	}
	if s.Paravirt {
		if feat.hasNV() {
			return fmt.Errorf("platform: paravirt rewriting is for pre-NV hardware; feat=%s already implements FEAT_NV", feat)
		}
		if nesting < 2 {
			return fmt.Errorf("platform: paravirt rewriting only applies to guest hypervisors (nesting >= 2)")
		}
		if s.NEVE {
			return fmt.Errorf("platform: paravirt and NEVE are mutually exclusive (NEVE requires v8.4 hardware)")
		}
	}
	if nesting >= 2 && !feat.hasNV() && !s.Paravirt {
		return fmt.Errorf("platform: an unmodified guest hypervisor crashes on %s hardware (Section 2); set feat=v8.3 or paravirt", feat)
	}
	if s.HostVHE && !feat.hasVHE() {
		return fmt.Errorf("platform: hostvhe requires VHE hardware (v8.1+), spec has feat=%s", feat)
	}
	if s.GuestVHE {
		if nesting < 2 {
			return fmt.Errorf("platform: guestvhe set but the spec has no guest hypervisor (nesting=1)")
		}
		if !feat.hasVHE() && !s.Paravirt {
			return fmt.Errorf("platform: guestvhe requires VHE hardware (v8.1+), spec has feat=%s", feat)
		}
	}
	if s.OptimizedVHE && !s.GuestVHE {
		return fmt.Errorf("platform: the optimized VHE hypervisor requires guestvhe")
	}
	if s.NEVE && nesting < 2 {
		return fmt.Errorf("platform: neve set but the spec has no guest hypervisor (nesting=1)")
	}
	return nil
}

// String renders the spec as its registry name, or as the canonical
// axis=value list for ad-hoc specs.
func (s Spec) String() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Axes()
}

// Axes renders the spec as a canonical axis=value list (parseable by
// Parse).
func (s Spec) Axes() string {
	var parts []string
	parts = append(parts, "arch="+s.Arch.String())
	if s.Feat != FeatDefault {
		parts = append(parts, "feat="+s.Feat.String())
	}
	nesting := s.Nesting
	if nesting == 0 {
		nesting = 1
	}
	parts = append(parts, fmt.Sprintf("nesting=%d", nesting))
	for _, f := range []struct {
		on   bool
		name string
	}{
		{s.HostVHE, "hostvhe"},
		{s.GuestVHE, "guestvhe"},
		{s.NEVE, "neve"},
		{s.Paravirt, "paravirt"},
		{s.GICv2, "gicv2"},
		{s.OptimizedVHE, "optvhe"},
		{s.RecordTrace, "trace"},
		{s.NoShadowing, "noshadow"},
	} {
		if f.on {
			parts = append(parts, f.name)
		}
	}
	if s.Ablation != nil {
		var on []string
		if !s.Ablation.DisableDefer {
			on = append(on, "defer")
		}
		if !s.Ablation.DisableRedirect {
			on = append(on, "redirect")
		}
		if !s.Ablation.DisableCached {
			on = append(on, "cached")
		}
		if len(on) == 0 {
			on = append(on, "none")
		}
		parts = append(parts, "ablation="+strings.Join(on, "+"))
	}
	if s.JITOff {
		parts = append(parts, "jit=off")
	}
	if s.CPUs != 0 {
		parts = append(parts, fmt.Sprintf("cpus=%d", s.CPUs))
	}
	if s.RAMSize != 0 {
		parts = append(parts, fmt.Sprintf("ram=%d", s.RAMSize>>20))
	}
	return strings.Join(parts, ",")
}
