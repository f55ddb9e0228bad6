package x86

import (
	"slices"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/wire"
)

// Durable serialization of x86 stack checkpoints, deliberately symmetric
// with the ARM side (internal/kvm/wire.go): data fields are walked,
// wiring (the IRQ sink, the by-reference shadow bitmap) is grafted from
// the live stack at decode, and topology pointers (loaded vCPUs,
// forwarded child hypervisors) travel as indices. Checkpoints carrying a
// guest IRQ handler cannot be serialized — durable checkpoints are boot
// checkpoints.

// Wire walks cp against s: the stack it was captured from when encoding,
// the stack to materialize it against when decoding. See the ARM side
// for the contract.
func (cp *StackCheckpoint) Wire(c *wire.Codec, s *Stack) {
	if c.Decoding() {
		*cp = StackCheckpoint{mem: new(mem.Snapshot)}
	}
	cp.mem.Wire(c, s.Mem)
	cp.trace.Wire(c)
	wire.Topo(c, &cp.cpus, s.CPUs, "x86: CPUs", func(cp **CPUCheckpoint, c *wire.Codec, cpu *CPU) {
		if c.Decoding() {
			*cp = cpu.Checkpoint() // keeps the IRQ sink and shadow bitmap
		}
		(*cp).Wire(c)
	})
	wire.Ptr(c, &cp.ept, wire.Struct)
	wire.Topo(c, &cp.hyps, s.hypList(), "x86: levels", func(cp *hypCheckpoint, c *wire.Codec, h *Hypervisor) {
		cp.wire(c, s, h)
	})
}

// Wire walks every data field of the core checkpoint.
func (cp *CPUCheckpoint) Wire(c *wire.Codec) {
	wire.Bool(c, &cp.nonRoot)
	wire.Int(c, &cp.level)
	wire.Int(c, &cp.guestLevel)
	wire.U64(c, &cp.current.Base)
	wire.Bool(c, &cp.shadowEnabled)
	wire.U64(c, &cp.shadowVMCS.Base)
	wire.Slice(c, &cp.posted, wire.Int)
	wire.Slice(c, &cp.pendingIRQ, wire.Int)
	wire.Bool(c, &cp.inIRQ)
	wire.U64(c, &cp.cycles)
	wire.Words(c, cp.levelCycles[:])
	wire.U64(c, &cp.lastAttributed)
}

// Wire walks a VM exit.
func (e *Exit) Wire(c *wire.Codec) {
	wire.Int(c, &e.Reason)
	wire.U16(c, &e.Field)
	wire.U64(c, &e.Val)
	wire.U64(c, &e.Addr)
	wire.Bool(c, &e.Write)
	wire.Int(c, &e.Vector)
}

func (cp *hypCheckpoint) wire(c *wire.Codec, s *Stack, h *Hypervisor) {
	wire.Slice(c, &cp.loaded, func(c *wire.Codec, l *loadedCtx) {
		h.wireVCPURef(c, &l.vcpu)
		wire.Int(c, &l.mode)
		wire.Bool(c, &l.fullDirty)
		wire.Bool(c, &l.lightEntry)
		wire.Bool(c, &l.skipRIP)
	})
	wire.Ptr(c, &cp.pendingFwd, func(c *wire.Codec, f *fwd) {
		s.wireHypRef(c, &f.child)
		f.exit.Wire(c)
	})
	wire.Topo(c, &cp.vms, h.VMs, "x86["+h.Cfg.Name+"]: VMs", func(cp *vmCheckpoint, c *wire.Codec, vm *VM) {
		wire.Ptr(c, &cp.ept, wire.Struct)
		wire.U64(c, &cp.eptNext)
		wire.U64(c, &cp.ramBase)
		wire.U64(c, &cp.ramSize)
		wire.Topo(c, &cp.vcpus, vm.VCPUs, "x86: vCPUs", func(cp *vcpuCheckpoint, c *wire.Codec, _ *VCPU) {
			cp.Wire(c)
		})
	})
}

func (cp *vcpuCheckpoint) Wire(c *wire.Codec) {
	if cp.irqHandler != nil {
		c.Fail("x86: checkpoint carries a guest IRQ handler (not a boot checkpoint); cannot serialize")
		return
	}
	wire.U64(c, &cp.vmcs.Base)
	wire.U64(c, &cp.vmcs12.Base)
	wire.Slice(c, &cp.pending, wire.Int)
	wire.U64(c, &cp.x0)
	wire.U64(c, &cp.injectVec)
	wire.Ptr(c, &cp.shadowEPT, wire.Struct)
}

// wireVCPURef walks a pointer to one of h's vCPUs as its (VM, vCPU)
// index pair, (-1, -1) for nil.
func (h *Hypervisor) wireVCPURef(c *wire.Codec, v **VCPU) {
	vi, ci := -1, -1
	for i, vm := range h.VMs {
		if j := slices.Index(vm.VCPUs, *v); j >= 0 {
			vi, ci = i, j
		}
	}
	if *v != nil && vi < 0 {
		c.Fail("x86[%s]: loaded vCPU not found in topology", h.Cfg.Name)
	}
	wire.Int(c, &vi)
	wire.Int(c, &ci)
	if !c.Decoding() || vi < 0 {
		return
	}
	if vi >= len(h.VMs) || ci < 0 || ci >= len(h.VMs[vi].VCPUs) {
		c.Fail("x86[%s]: loaded vCPU index (%d,%d) outside topology", h.Cfg.Name, vi, ci)
		return
	}
	*v = h.VMs[vi].VCPUs[ci]
}

// wireHypRef walks a pointer to one of s's hypervisors as its level index.
func (s *Stack) wireHypRef(c *wire.Codec, h **Hypervisor) {
	hyps := s.hypList()
	i := slices.Index(hyps, *h)
	if !c.Decoding() && i < 0 {
		c.Fail("x86: forwarded child hypervisor not found in stack")
	}
	wire.Int(c, &i)
	if c.Decoding() {
		if i < 0 || i >= len(hyps) {
			c.Fail("x86: forwarded child index %d outside stack", i)
			return
		}
		*h = hyps[i]
	}
}
