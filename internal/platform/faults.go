package platform

import (
	"fmt"

	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/x86"
)

// This file threads the fault layer (internal/fault) through the built
// platforms: the spec's MaxTraps/MaxSteps budgets become a watchdog and
// its Faults plan an injector, attached to the CPUs as one budget value
// that interpreted traps charge and, on ARM, the trace-JIT's replays
// charge too, so the engine stays on; Protect/RunGuestErr form the
// recovery boundary that converts internal panics into annotated
// *fault.SimError values. With the spec's fault fields zero (every
// registry entry), nothing is installed and the hot path is untouched —
// the paper goldens cannot move.

// recentDepth is how many trailing trap events a SimError carries.
const recentDepth = 16

// newFaults builds the spec's watchdog and injector over env, and the one
// budget value the CPUs charge: either alone, or both combined. b is nil
// when the spec asks for neither.
func newFaults(spec Spec, env fault.Env) (wd *fault.Watchdog, inj *fault.Injector, b jit.Budget) {
	if spec.MaxTraps > 0 || spec.MaxSteps > 0 {
		wd = &fault.Watchdog{MaxTraps: spec.MaxTraps, MaxSteps: spec.MaxSteps}
		b = wd
	}
	if spec.Faults.Active() {
		inj = fault.NewInjector(spec.Faults, env)
		b = inj
		if wd != nil {
			b = fault.Combined{W: wd, In: inj}
		}
	}
	return wd, inj, b
}

// installFaults attaches the spec's fault plan and watchdog budgets to
// the ARM stack's CPUs and its trace-JIT.
func (p *armPlatform) installFaults() {
	var b jit.Budget
	p.wd, p.inj, b = newFaults(p.spec, &armEnv{s: p.s})
	if b == nil {
		return
	}
	p.s.M.Trace.EnableRecent(recentDepth)
	if p.inj != nil {
		p.inj.Poison = p.s.M.CPUs[0].JITPoison
	}
	p.s.SetBudget(b)
}

func (p *armPlatform) Injector() *fault.Injector { return p.inj }

func (p *armPlatform) Watchdog() *fault.Watchdog { return p.wd }

// Protect runs fn under the recovery boundary: any panic — a watchdog
// abort, an injected fault the stack could not absorb, a guest-triggered
// model bug — returns as a *fault.SimError annotated with CPU state,
// recent trap history, and the injection log. A platform whose Protect
// returned non-nil is poisoned (the model unwound mid-operation) and must
// be discarded.
func (p *armPlatform) Protect(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = p.annotate(fault.Recover(v))
		}
	}()
	fn()
	return nil
}

// RunGuestErr is RunGuest behind Protect.
func (p *armPlatform) RunGuestErr(i int, fn func(g Guest)) error {
	return p.Protect(func() { p.RunGuest(i, fn) })
}

func (p *armPlatform) annotate(se *fault.SimError) *fault.SimError {
	// The failure interrupted whichever core was executing; the busiest
	// core is the one the workload was driving.
	c := p.s.M.CPUs[0]
	for _, other := range p.s.M.CPUs[1:] {
		if other.Cycles() > c.Cycles() {
			c = other
		}
	}
	se.CPU = c.ID
	se.Level = int(c.Level())
	se.Cycle = c.Cycles()
	se.Recent = p.s.M.Trace.Recent()
	if p.wd != nil {
		se.Traps = p.wd.Traps()
		se.Steps = p.wd.Steps()
	}
	if p.inj != nil {
		se.InjectionLog = p.inj.Log()
	}
	return se
}

// armEnv implements fault.Env over a kvm stack: the concrete
// perturbations the injector can apply to the simulated ARM machine.
type armEnv struct{ s *kvm.Stack }

// SpuriousIRQ asserts a random shared peripheral interrupt, enabled or
// not — exactly what a misbehaving device or a stuck interrupt line does.
func (e *armEnv) SpuriousIRQ(r *fault.Rand) (string, bool) {
	intid := gic.MinSPI + r.Intn(64)
	e.s.M.Dist.AssertSPI(intid)
	return fmt.Sprintf("spurious SPI %d", intid), true
}

// CorruptVNCR flips one bit in a random used slot of a NEVE deferred
// access page: the memory the guest hypervisor's register state lives in
// under FEAT_NV2, and therefore the paper's most safety-critical page.
// The corruption goes through the page's tracked backing store (the
// authoritative copy the engine's rewritten accesses read), not the RAM
// placeholder, so it lands exactly where the deferred accesses look.
func (e *armEnv) CorruptVNCR(r *fault.Rand) (string, bool) {
	var owners []*kvm.VCPU
	for _, vm := range []*kvm.VM{e.s.VM, e.s.NestedVM, e.s.L3VM} {
		if vm == nil {
			continue
		}
		for _, v := range vm.VCPUs {
			if v.Page.Base != 0 {
				owners = append(owners, v)
			}
		}
	}
	if len(owners) == 0 {
		return "", false // not a NEVE stack
	}
	v := owners[r.Intn(len(owners))]
	off := 8 * r.Intn(core.PageBytes()/8)
	bit := r.Intn(64)
	reg, ok := core.RegAtOffset(off)
	if !ok {
		return "", false
	}
	v.PageCtx.Set(reg, v.PageCtx.Get(reg)^uint64(1)<<bit)
	return fmt.Sprintf("VNCR corrupt: %s page slot %#x (%s) bit %d", v, uint64(v.Page.Base)+uint64(off), reg, bit), true
}

// FlipGuestBit flips one bit anywhere in the L1 VM's RAM — guest data,
// guest page tables, or the nested stack's carve-outs, whichever the draw
// lands on (a transient memory error).
func (e *armEnv) FlipGuestBit(r *fault.Rand) (string, bool) {
	vm := e.s.VM
	addr := vm.RAMBase + mem.Addr(8*r.Intn(int(vm.RAMSize/8)))
	bit := r.Intn(64)
	old := e.s.M.Mem.MustRead64(addr)
	e.s.M.Mem.MustWrite64(addr, old^uint64(1)<<bit)
	return fmt.Sprintf("guest RAM flip: %#x bit %d", uint64(addr), bit), true
}

// DeviceNoise stores a random value into the GIC distributor's control or
// enable registers through the machine bus: register-level device chaos.
func (e *armEnv) DeviceNoise(r *fault.Rand) (string, bool) {
	var off uint64
	switch r.Intn(3) {
	case 0:
		off = gic.RegCTLR
	case 1:
		off = gic.RegISENABLER + uint64(4*r.Intn(4))
	default:
		off = gic.RegICENABLER + uint64(4*r.Intn(4))
	}
	val := r.Uint64() & 0xffff_ffff
	c := e.s.M.CPUs[0]
	if c.Bus == nil || !c.Bus.Access(c, gic.DistBase+mem.Addr(off), true, 4, &val) {
		return "", false
	}
	return fmt.Sprintf("device noise: GICD+%#x <- %#x", off, val), true
}

// installFaults attaches the watchdog and the (interrupt-only) injector
// to the x86 comparator's CPUs.
func (p *x86Platform) installFaults() {
	var b jit.Budget
	p.wd, p.inj, b = newFaults(p.spec, &x86Env{s: p.s})
	if b == nil {
		return
	}
	p.s.Trace.EnableRecent(recentDepth)
	for _, c := range p.s.CPUs {
		c.Budget = b
	}
}

func (p *x86Platform) Injector() *fault.Injector { return p.inj }

func (p *x86Platform) Watchdog() *fault.Watchdog { return p.wd }

// Protect implements the recovery boundary for x86 stacks; see the ARM
// variant for semantics.
func (p *x86Platform) Protect(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = p.annotate(fault.Recover(v))
		}
	}()
	fn()
	return nil
}

// RunGuestErr is RunGuest behind Protect.
func (p *x86Platform) RunGuestErr(i int, fn func(g Guest)) error {
	return p.Protect(func() { p.RunGuest(i, fn) })
}

func (p *x86Platform) annotate(se *fault.SimError) *fault.SimError {
	c := p.s.CPUs[0]
	for _, other := range p.s.CPUs[1:] {
		if other.Cycles() > c.Cycles() {
			c = other
		}
	}
	se.CPU = c.ID
	se.Level = c.Level()
	se.Cycle = c.Cycles()
	se.Recent = p.s.Trace.Recent()
	if p.wd != nil {
		se.Traps = p.wd.Traps()
		se.Steps = p.wd.Steps()
	}
	if p.inj != nil {
		se.InjectionLog = p.inj.Log()
	}
	return se
}

// x86Env implements fault.Env for the comparator. Only interrupt
// injection is modeled; the NEVE-specific and ARM-device kinds are
// inapplicable and the injector falls through past them.
type x86Env struct{ s *x86.Stack }

func (e *x86Env) SpuriousIRQ(r *fault.Rand) (string, bool) {
	vec := 0x20 + r.Intn(0x20)
	e.s.CPUs[0].AssertIRQ(vec)
	return fmt.Sprintf("spurious vector %#x", vec), true
}

func (e *x86Env) CorruptVNCR(*fault.Rand) (string, bool)  { return "", false }
func (e *x86Env) FlipGuestBit(*fault.Rand) (string, bool) { return "", false }
func (e *x86Env) DeviceNoise(*fault.Rand) (string, bool)  { return "", false }
