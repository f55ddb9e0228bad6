package kvm

import (
	"slices"

	"github.com/nevesim/neve/internal/machine"
	"github.com/nevesim/neve/internal/wire"
)

// Durable serialization of stack checkpoints. Two kinds of state live in
// a StackCheckpoint and they travel differently:
//
//   - Data (register files, cursors, counters, memory pages) is walked
//     field by field.
//   - Wiring (FileTap pointers inside Contexts, the VIRQ plumbing) and
//     topology pointers (the vCPU a loadedCtx refers to, the child
//     hypervisor of a pending forward) are not encodable. Pointers are
//     walked as indices into the stack's fixed topology and resolved
//     against the live stack at decode; wiring is grafted from the live
//     stack, which the restore path then leaves untouched.
//
// One piece of state has no index form: a guest program's installed IRQ
// handler is an arbitrary Go closure. Encoding a checkpoint that carries
// one fails with a sticky codec error — the contract is that durable
// checkpoints are boot checkpoints, captured before a workload installs
// handlers. The bench warm-boot pool snapshots exactly there.

// Wire walks cp against s: the stack it was captured from when encoding,
// the stack to materialize it against when decoding. A decoded checkpoint
// is interchangeable with one from Stack.Checkpoint; a topology mismatch
// or corrupt payload sets the codec's error and the partial checkpoint
// must be discarded.
func (cp *StackCheckpoint) Wire(c *wire.Codec, s *Stack) {
	if c.Decoding() {
		*cp = StackCheckpoint{machine: new(machine.Checkpoint)}
	}
	cp.machine.Wire(c, s.M)
	cp.lastSMP.Wire(c)
	wire.Topo(c, &cp.hyps, s.hyps(), "kvm: levels", func(cp *hypCheckpoint, c *wire.Codec, h *Hypervisor) {
		cp.wire(c, s, h)
	})
}

// Wire walks the register file; the FileTap wiring stays.
func (ctx *Context) Wire(c *wire.Codec) { wire.Words(c, ctx.regs[:]) }

// Wire walks the SMP run statistics.
func (st *SMPStats) Wire(c *wire.Codec) {
	wire.Int(c, &st.VCPUs)
	wire.Bool(c, &st.Parallel)
	wire.U64(c, &st.Epochs)
	wire.U64(c, &st.VClock)
	wire.U64(c, &st.DistOps)
	wire.U64(c, &st.Contention)
	wire.U64(c, &st.FinalBudget)
}

func (cp *hypCheckpoint) wire(c *wire.Codec, s *Stack, h *Hypervisor) {
	wire.Topo(c, &cp.hostCtxs, h.hostCtxs, "kvm["+h.Cfg.Name+"]: host contexts", func(ctx *Context, c *wire.Codec, live Context) {
		if c.Decoding() {
			*ctx = live // keeps the FileTap wiring
		}
		ctx.Wire(c)
	})
	wire.Slice(c, &cp.loaded, func(c *wire.Codec, l *loadedRef) {
		h.wireVCPURef(c, &l.vcpu)
		wire.Int(c, &l.mode)
	})
	wire.Slice(c, &cp.pendingFwd, func(c *wire.Codec, f **fwd) {
		wire.Ptr(c, f, func(c *wire.Codec, f *fwd) {
			s.wireHypRef(c, &f.child)
			f.exc.Wire(c)
			wire.Int(c, &f.level)
		})
	})
	wire.Bool(c, &cp.hasGuest)
	wire.U64(c, &cp.guestNext)
	wire.U16(c, &cp.nextVMID)
	wire.Topo(c, &cp.vms, h.VMs, "kvm["+h.Cfg.Name+"]: VMs", (*vmCheckpoint).wire)
}

func (cp *vmCheckpoint) wire(c *wire.Codec, vm *VM) {
	wire.Ptr(c, &cp.s2, wire.Struct)
	wire.U16(c, &cp.vmid)
	wire.Ptr(c, &cp.virtio, wire.Struct)
	wire.U64(c, &cp.gicShadowOwn)
	wire.U64(c, &cp.gicShadow)
	wire.Topo(c, &cp.vcpus, vm.VCPUs, "kvm: vCPUs", (*vcpuCheckpoint).wire)
}

func (cp *virtioCheckpoint) Wire(c *wire.Codec) {
	wire.U64(c, &cp.queuePFN)
	wire.U64(c, &cp.queueNum)
	wire.U64(c, &cp.status)
	wire.U32(c, &cp.intStatus)
	wire.Ptr(c, &cp.echo, wire.Struct)
}

func (cp *vcpuCheckpoint) wire(c *wire.Codec, v *VCPU) {
	if c.Decoding() {
		// Contexts keep the live vCPU's FileTap wiring.
		cp.el1, cp.vel2, cp.virtEL1, cp.pageCtx = v.EL1, v.VEL2, v.VirtEL1, v.PageCtx
	}
	cp.el1.Wire(c)
	cp.vel2.Wire(c)
	cp.virtEL1.Wire(c)
	cp.pageCtx.Wire(c)
	wire.Bool(c, &cp.inVEL2)
	wire.Slice(c, &cp.pendingVIRQ, wire.Int)
	wire.Ptr(c, &cp.pendingEntry, wire.Struct)
	wire.Ptr(c, &cp.shadowS2, wire.Struct)
	wire.Int(c, &cp.dirtyLRs)
	wire.U64(c, &cp.x0)
	wire.Bool(c, &cp.online)
	wire.Ptr(c, &cp.guest, wire.Struct)
}

func (g *guestCheckpoint) Wire(c *wire.Codec) {
	if g.irqHandler != nil {
		c.Fail("kvm: checkpoint carries a guest IRQ handler (not a boot checkpoint); cannot serialize")
		return
	}
	wire.Ptr(c, &g.s1, wire.Struct)
	wire.U64(c, &g.s1Next)
	wire.Ptr(c, &g.vq, wire.Struct)
	wire.U64(c, &g.vqBase)
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
		c.Fail("kvm[%s]: loaded vCPU not found in topology", h.Cfg.Name)
	}
	wire.Int(c, &vi)
	wire.Int(c, &ci)
	if !c.Decoding() || vi < 0 {
		return
	}
	if vi >= len(h.VMs) || ci < 0 || ci >= len(h.VMs[vi].VCPUs) {
		c.Fail("kvm[%s]: loaded vCPU index (%d,%d) outside topology", h.Cfg.Name, vi, ci)
		return
	}
	*v = h.VMs[vi].VCPUs[ci]
}

// wireHypRef walks a pointer to one of s's hypervisors as its level index.
func (s *Stack) wireHypRef(c *wire.Codec, h **Hypervisor) {
	hyps := s.hyps()
	i := slices.Index(hyps, *h)
	if !c.Decoding() && i < 0 {
		c.Fail("kvm: forwarded child hypervisor not found in stack")
	}
	wire.Int(c, &i)
	if c.Decoding() {
		if i < 0 || i >= len(hyps) {
			c.Fail("kvm: forwarded child index %d outside stack", i)
			return
		}
		*h = hyps[i]
	}
}
