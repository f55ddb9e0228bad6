package kvm

import (
	"time"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/machine"
	"github.com/nevesim/neve/internal/mem"
)

// Stack is an assembled virtualization stack on simulated hardware: the
// machine, the host hypervisor, and optionally a guest hypervisor with a
// nested VM — the configurations of the paper's evaluation (Sections 5, 7).
type Stack struct {
	M    *machine.Machine
	Host *Hypervisor
	// VM is the host's (only) VM. For nested stacks it contains GuestHyp.
	VM *VM
	// GuestHyp and NestedVM are set for nested stacks.
	GuestHyp *Hypervisor
	NestedVM *VM
	// GuestHyp2 and L3VM are set for recursive stacks (Section 6.2).
	GuestHyp2 *Hypervisor
	L3VM      *VM

	// jit is the trace-JIT engine, when installed (InstallJIT); sgen is
	// its structural generation.
	jit  *jit.Engine
	sgen structGen

	// smpBarrierWait is the wall clock the coordinator spent collecting
	// parallel epochs during the last SMP run, and smpMergeTime the wall
	// clock of its serialized epoch merges. Wall time, not virtual time —
	// they live here, outside SMPStats, so the parallel/sequential
	// equivalence gates never compare them.
	smpBarrierWait time.Duration
	smpMergeTime   time.Duration

	// smpRunning marks an SMP epoch engine mid-run: vCPU goroutines are
	// parked inside guest contexts, so the stack is not at a quiescent
	// boundary and cannot be checkpointed.
	smpRunning bool
	// lastSMP is the statistics of the most recent completed SMP run
	// (captured and restored by checkpoints alongside the rest of the
	// scheduler-visible state).
	lastSMP SMPStats
}

// StackOptions selects the stack configuration.
type StackOptions struct {
	// CPUs is the machine core count (default 2).
	CPUs int
	// Feat is the simulated architecture revision (default ARMv8.3; use
	// arm.FeaturesV84 for NEVE).
	Feat *arm.Features
	// GuestVHE selects a VHE guest hypervisor (nested stacks).
	GuestVHE bool
	// GuestNEVE makes the guest hypervisor use NEVE (requires FeaturesV84).
	GuestNEVE bool
	// RecordTrace retains individual trap events.
	RecordTrace bool
	// RAMSize is the L1 VM's RAM (default 16 MiB).
	RAMSize uint64
	// NEVEAblation selectively disables NEVE mechanisms (Section 6's
	// three techniques) for ablation experiments.
	NEVEAblation *core.Engine
	// GICv2 selects the memory-mapped hypervisor control interface for
	// both hypervisor levels (the paper's hardware).
	GICv2 bool
	// HostVHE runs the host hypervisor as a VHE build (entirely in EL2,
	// no host EL1 context switching). The paper's host is non-VHE KVM on
	// v8.0-class hardware; this is the ablation axis of Section 6.5's
	// second design discussion.
	HostVHE bool
	// GuestOptimized selects the optimized VHE guest hypervisor of
	// Dall et al. [16] (the paper's Section 7.1 suggestion that it could
	// trap even less than x86 under NEVE).
	GuestOptimized bool
}

func (o *StackOptions) defaults() {
	if o.CPUs == 0 {
		o.CPUs = 2
	}
	if o.Feat == nil {
		f := arm.FeaturesV83()
		o.Feat = &f
	}
	if o.RAMSize == 0 {
		o.RAMSize = 16 << 20
	}
}

// vmRAMBase is where the host places the L1 VM's RAM in machine memory.
const vmRAMBase mem.Addr = 0x8000_0000

// NewVMStack builds the single-level "VM" configuration: KVM running one
// VM with one vCPU per core.
func NewVMStack(opts StackOptions) *Stack {
	opts.defaults()
	m := machine.New(machine.Config{CPUs: opts.CPUs, Feat: *opts.Feat, RecordTrace: opts.RecordTrace, NV2: opts.NEVEAblation})
	host := New(Config{Name: "L0", GICv2: opts.GICv2, VHE: opts.HostVHE}, m, nil)
	for _, c := range m.CPUs {
		c.Vector = host
	}
	vm := host.CreateVM("vm", opts.CPUs, 0, vmRAMBase, opts.RAMSize)
	return &Stack{M: m, Host: host, VM: vm}
}

// NewNestedStack builds the "nested VM" configuration: KVM as host, a
// (paravirtualized or NEVE) KVM guest hypervisor inside the VM, and a
// nested VM inside that (Figure 1(c)).
func NewNestedStack(opts StackOptions) *Stack {
	opts.defaults()
	if opts.GuestNEVE && !opts.Feat.NV2 {
		f := arm.FeaturesV84()
		opts.Feat = &f
	}
	s := NewVMStack(opts)
	gh := New(Config{Name: "L1", VHE: opts.GuestVHE, NEVE: opts.GuestNEVE, Optimized: opts.GuestOptimized, GICv2: opts.GICv2}, s.M, s.Host)
	s.GuestHyp = gh
	s.NestedVM = s.Host.AttachGuestHypervisor(s.VM, gh)
	return s
}

// NewRecursiveStack builds the recursive configuration of Section 6.2: a
// second guest hypervisor inside the nested VM, running a doubly nested
// (L3) VM. The guest hypervisors' VHE/NEVE configuration follows opts.
func NewRecursiveStack(opts StackOptions) *Stack {
	if opts.RAMSize == 0 {
		opts.RAMSize = 64 << 20
	}
	s := NewNestedStack(opts)
	gh2 := New(Config{Name: "L2", VHE: opts.GuestVHE, NEVE: opts.GuestNEVE}, s.M, s.GuestHyp)
	s.GuestHyp2 = gh2
	s.L3VM = s.GuestHyp.AttachGuestHypervisor(s.NestedVM, gh2)
	return s
}

// RunGuest runs fn as the innermost guest OS on vcpu index i: the VM's OS
// for a plain stack, the nested VM's OS for a nested stack, the L3 VM's OS
// for a recursive stack.
func (s *Stack) RunGuest(i int, fn func(g *GuestCtx)) {
	if s.GuestHyp2 != nil {
		s.Host.RunL3GuestOS(s.VM.VCPUs[i], fn)
		return
	}
	if s.GuestHyp == nil {
		s.Host.RunGuestOS(s.VM.VCPUs[i], fn)
		return
	}
	s.Host.RunNestedGuestOS(s.VM.VCPUs[i], fn)
}

// NEVE reports whether the stack's guest hypervisor uses NEVE.
func (s *Stack) NEVE() bool { return s.GuestHyp != nil && s.GuestHyp.Cfg.NEVE }

// LastSMPBarrierWait returns the wall-clock time the coordinator spent
// collecting parallel epochs (waiting for every released vCPU to park)
// during the most recent SMP run, segment execution included; it is zero
// for sequential runs. It is a host-side measurement and is deliberately
// kept out of SMPStats so the byte-equivalence gates never see it.
func (s *Stack) LastSMPBarrierWait() time.Duration { return s.smpBarrierWait }

// LastSMPMergeTime returns the wall-clock time the coordinator spent in
// the serialized epoch merges of the most recent SMP run: parked
// shared-state operations, the distributor merge and the exit epilogues,
// run one vCPU at a time in either mode. Like LastSMPBarrierWait it is a
// host-side measurement outside SMPStats.
func (s *Stack) LastSMPMergeTime() time.Duration { return s.smpMergeTime }
