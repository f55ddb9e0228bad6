package platform

import (
	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/trace"
	"github.com/nevesim/neve/internal/workload"
	"github.com/nevesim/neve/internal/x86"
)

// NICSPI is the shared peripheral interrupt of the synthetic NIC on the
// ARM machine (the device the workloads' RX interrupts arrive on).
const NICSPI = 48

// NICVector is the x86 device vector of the synthetic NIC.
const NICVector = 0x51

// Guest is the guest OS execution context a Platform hands to RunGuest
// callbacks: the workload API plus the vCPU cycle counter. The concrete
// types behind it are *kvm.GuestCtx (ARM) and *x86.GuestCtx; callbacks
// needing architecture-specific operations (raw system registers, virtio
// queues, the console) type-assert to them.
type Guest interface {
	workload.API
	Cycles() uint64
	// OnIRQ installs an interrupt observer; workloads need none, and
	// the trace-JIT never replays an observed delivery.
	OnIRQ(fn func(intid int))
}

// Platform is one assembled stack: the uniform execution surface over the
// ARM and x86 configurations. It subsumes workload.Platform, so a built
// platform plugs directly into workload.Profile.Run.
type Platform interface {
	workload.Platform

	// Spec returns the (validated) spec the platform was built from.
	Spec() Spec
	// RunGuest runs fn as the innermost guest OS on vcpu index i.
	RunGuest(i int, fn func(g Guest))
	// RunGuestErr is RunGuest behind the recovery boundary: internal
	// panics (injected faults, guest-triggered bugs, watchdog aborts)
	// return as a *fault.SimError instead of crashing the process. A
	// platform that returned a SimError is poisoned and must be
	// discarded.
	RunGuestErr(i int, fn func(g Guest)) error
	// Protect runs an arbitrary driver function under the same recovery
	// boundary (for multi-entry sequences like the IPI benchmarks).
	Protect(fn func()) error
	// Injector returns the attached fault injector (nil unless the spec's
	// Faults plan is active).
	Injector() *fault.Injector
	// Watchdog returns the attached livelock watchdog (nil unless the
	// spec sets trap/step budgets). Pooled platforms reset it between
	// sweep cells so budgets apply per cell, not cumulatively.
	Watchdog() *fault.Watchdog
	// PreparePeer loads vCPU 1's innermost guest so it can receive IPIs;
	// a no-op on single-CPU platforms.
	PreparePeer()
	// Trace returns the machine's trap collector.
	Trace() *trace.Collector
	// CPUCycles returns core i's cycle counter.
	CPUCycles(i int) uint64
	// LevelCycles returns core i's per-level cycle attribution (0 = host
	// hypervisor, 1 = guest hypervisor or VM, ...).
	LevelCycles(i int) []uint64
	// JITStats returns the trace-JIT hit/miss/bailout counters (zero when
	// the engine is not installed — x86, or a self-disabled configuration).
	JITStats() trace.JITStats
	// ARM returns the underlying ARM stack, or nil on x86 platforms.
	ARM() *kvm.Stack
	// X86 returns the underlying x86 stack, or nil on ARM platforms.
	X86() *x86.Stack
	// Snapshot captures the platform's complete state: a copy-on-write
	// memory snapshot plus every component's checkpoint. See snapshot.go.
	Snapshot() *Checkpoint
	// Restore rewinds the platform to a Checkpoint taken from the same
	// build; the restored platform produces byte-identical output to one
	// that never ran past the capture point.
	Restore(cp *Checkpoint)
}

// Build validates spec and assembles its stack. Illegal axis combinations
// return an error; a nil error means the returned Platform is runnable.
func Build(spec Spec) (Platform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Arch == X86 {
		return buildX86(spec), nil
	}
	return buildARM(spec), nil
}

// MustBuild is Build for specs known to be valid (registry entries).
func MustBuild(spec Spec) Platform {
	p, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func buildARM(spec Spec) *armPlatform {
	feat := spec.featOrDefault()
	if spec.Paravirt {
		// The paravirtualized guest hypervisor's privileged instructions
		// are hvc-rewritten and trap at the same cost as architectural
		// FEAT_NV traps (Section 5's interchangeability validation), so
		// the rewritten stack is modeled on the NV machine.
		feat = FeatV83
	}
	f := armFeatures(feat)
	opts := kvm.StackOptions{
		CPUs:           spec.CPUs,
		Feat:           &f,
		GuestVHE:       spec.GuestVHE,
		GuestNEVE:      spec.NEVE,
		RecordTrace:    spec.RecordTrace,
		RAMSize:        spec.RAMSize,
		GICv2:          spec.GICv2,
		HostVHE:        spec.HostVHE,
		GuestOptimized: spec.OptimizedVHE,
	}
	if spec.Ablation != nil {
		engine := core.Engine{
			DisableDefer:    spec.Ablation.DisableDefer,
			DisableRedirect: spec.Ablation.DisableRedirect,
			DisableCached:   spec.Ablation.DisableCached,
		}
		opts.NEVEAblation = &engine
	}
	var s *kvm.Stack
	nesting := spec.Nesting
	if nesting == 0 {
		nesting = 1
	}
	switch nesting {
	case 1:
		s = kvm.NewVMStack(opts)
	case 2:
		s = kvm.NewNestedStack(opts)
	default:
		s = kvm.NewRecursiveStack(opts)
	}
	s.M.Dist.Route(NICSPI, 0)
	// The trace-JIT layer is on by default, except under trap recording,
	// which keeps every event replay would skip. Watchdog budgets and
	// fault plans keep it: replay charges them, and an op that would
	// cross a firing injection runs interpreted (installFaults).
	if !spec.JITOff && !spec.RecordTrace {
		s.InstallJIT()
	}
	p := &armPlatform{spec: spec, s: s}
	p.installFaults()
	return p
}

func armFeatures(f FeatureLevel) arm.Features {
	switch f {
	case FeatV80:
		return arm.FeaturesV80()
	case FeatV81:
		return arm.FeaturesV81()
	case FeatV84:
		return arm.FeaturesV84()
	default:
		return arm.FeaturesV83()
	}
}

func buildX86(spec Spec) *x86Platform {
	nesting := spec.Nesting
	if nesting == 0 {
		nesting = 1
	}
	s := x86.NewStack(x86.StackOptions{
		CPUs:        spec.CPUs,
		Nested:      nesting >= 2,
		Shadowing:   !spec.NoShadowing,
		RecordTrace: spec.RecordTrace,
	})
	p := &x86Platform{spec: spec, s: s}
	p.installFaults()
	return p
}

// armPlatform is an assembled ARM stack with the uniform surface.
type armPlatform struct {
	spec Spec
	s    *kvm.Stack
	// inj and wd are the attached fault injector and watchdog (nil when
	// the spec requests none; see faults.go).
	inj *fault.Injector
	wd  *fault.Watchdog
}

var _ Platform = (*armPlatform)(nil)

func (p *armPlatform) Spec() Spec      { return p.spec }
func (p *armPlatform) ARM() *kvm.Stack { return p.s }
func (p *armPlatform) X86() *x86.Stack { return nil }

func (p *armPlatform) Trace() *trace.Collector { return p.s.M.Trace }

func (p *armPlatform) JITStats() trace.JITStats { return p.s.JITStats() }

func (p *armPlatform) RunGuest(i int, fn func(g Guest)) {
	p.s.RunGuest(i, func(g *kvm.GuestCtx) { fn(g) })
}

// PreparePeer implements Platform: load vCPU 1's innermost guest.
func (p *armPlatform) PreparePeer() {
	if len(p.s.M.CPUs) < 2 {
		return
	}
	if p.s.GuestHyp != nil {
		p.s.Host.PreparePeerNested(p.s.VM.VCPUs[1])
		return
	}
	p.s.Host.PreparePeerVM(p.s.VM.VCPUs[1])
}

func (p *armPlatform) CPUCycles(i int) uint64     { return p.s.M.CPUs[i].Cycles() }
func (p *armPlatform) LevelCycles(i int) []uint64 { return p.s.M.CPUs[i].LevelCycles() }

// InjectDeviceIRQ implements workload.Platform.
func (p *armPlatform) InjectDeviceIRQ() { p.s.M.Dist.AssertSPI(NICSPI) }

// ServicePeer implements workload.Platform.
func (p *armPlatform) ServicePeer() {
	if len(p.s.M.CPUs) > 1 {
		p.s.Host.Service(p.s.M.CPUs[1])
	}
}

// HasPeer implements workload.Platform.
func (p *armPlatform) HasPeer() bool { return len(p.s.M.CPUs) > 1 }

// x86Platform is an assembled x86 stack with the uniform surface.
type x86Platform struct {
	spec Spec
	s    *x86.Stack
	inj  *fault.Injector
	wd   *fault.Watchdog
}

var _ Platform = (*x86Platform)(nil)

func (p *x86Platform) Spec() Spec      { return p.spec }
func (p *x86Platform) ARM() *kvm.Stack { return nil }
func (p *x86Platform) X86() *x86.Stack { return p.s }

func (p *x86Platform) Trace() *trace.Collector { return p.s.Trace }

func (p *x86Platform) JITStats() trace.JITStats { return trace.JITStats{} }

func (p *x86Platform) RunGuest(i int, fn func(g Guest)) {
	p.s.RunGuest(i, func(g *x86.GuestCtx) { fn(g) })
}

// PreparePeer implements Platform: load vCPU 1's innermost guest.
func (p *x86Platform) PreparePeer() {
	if len(p.s.CPUs) < 2 {
		return
	}
	p.s.LoadTarget(1)
}

func (p *x86Platform) CPUCycles(i int) uint64     { return p.s.CPUs[i].Cycles() }
func (p *x86Platform) LevelCycles(i int) []uint64 { return p.s.CPUs[i].LevelCycles() }

// InjectDeviceIRQ implements workload.Platform.
func (p *x86Platform) InjectDeviceIRQ() { p.s.CPUs[0].AssertIRQ(NICVector) }

// ServicePeer implements workload.Platform.
func (p *x86Platform) ServicePeer() {
	if len(p.s.CPUs) > 1 {
		p.s.Service(1)
	}
}

// HasPeer implements workload.Platform.
func (p *x86Platform) HasPeer() bool { return len(p.s.CPUs) > 1 }
