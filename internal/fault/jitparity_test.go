// Trace-JIT fault parity: every internal/fault perturbation kind, fired
// while super-ops are live and replaying, must leave the stack in state
// byte-identical to the fully interpreted path. The perturbations are
// applied from the workload side (the platform's own injector disables
// the JIT at the trap site, precisely because its hooks observe every
// trap), using the same deterministic draws the injector would make, so a
// jit-on and a jit-off run see the identical fault at the identical
// point. A guarded-state perturbation must bail the affected super-ops to
// the interpreter; a perturbation outside the guard (guest RAM) must be
// invisible to replay exactly as it is to the interpreted sequence —
// recordings that touch memory are never promoted.
package fault_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/platform"
)

// applyFault applies one perturbation kind to the stack, mirroring the
// injector's armEnv implementations over exported state. ok=false means
// the kind is inapplicable to this stack (no NEVE pages to corrupt).
func applyFault(s *kvm.Stack, k fault.Kind, r *fault.Rand) bool {
	switch k {
	case fault.SpuriousIRQ:
		s.M.Dist.AssertSPI(gic.MinSPI + r.Intn(64))
		return true
	case fault.VNCRCorrupt:
		var owners []*kvm.VCPU
		for _, vm := range []*kvm.VM{s.VM, s.NestedVM, s.L3VM} {
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
			return false
		}
		v := owners[r.Intn(len(owners))]
		off := 8 * r.Intn(core.PageBytes()/8)
		bit := r.Intn(64)
		reg, ok := core.RegAtOffset(off)
		if !ok {
			return false
		}
		v.PageCtx.Set(reg, v.PageCtx.Get(reg)^uint64(1)<<bit)
		return true
	case fault.PageFlip:
		vm := s.VM
		addr := vm.RAMBase + mem.Addr(8*r.Intn(int(vm.RAMSize/8)))
		old := s.M.Mem.MustRead64(addr)
		s.M.Mem.MustWrite64(addr, old^uint64(1)<<r.Intn(64))
		return true
	case fault.DeviceNoise:
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
		c := s.M.CPUs[0]
		return c.Bus != nil && c.Bus.Access(c, gic.DistBase+mem.Addr(off), true, 4, &val)
	}
	return false
}

// faultParityRun runs the parity workload on one build: warm until
// super-ops replay, fire the kind, keep running, and digest everything
// observable into one comparable string.
func faultParityRun(t *testing.T, name string, jitOff bool, k fault.Kind) (sig string, applied bool, warmHits, totalHits uint64) {
	t.Helper()
	spec := platform.MustLookup(name)
	spec.CPUs = 2
	spec.JITOff = jitOff
	p := platform.MustBuild(spec)
	var obs []uint64
	p.RunGuest(0, func(g platform.Guest) {
		kg := g.(*kvm.GuestCtx)
		irqs := uint64(0)
		g.OnIRQ(func(int) { irqs++ })
		phase := func(n, base int) {
			for i := 0; i < n; i++ {
				g.Hypercall()
				// Cycle the written value over two values: the world switch
				// copies it through the saved contexts, and every copy source
				// is a value guard, so a never-recurring value would fill
				// the per-cause variant chains and starve replay.
				kg.CPU.MSR(arm.TPIDR_EL1, uint64(base+i%2))
				obs = append(obs, kg.CPU.Reg(arm.TPIDR_EL1))
				obs = append(obs, g.DeviceRead(uint64(i%4)*8))
				g.Work(500)
			}
		}
		phase(60, 0)
		warmHits = p.JITStats().Hits
		applied = applyFault(p.ARM(), k, fault.NewRand(0xfa017+uint64(k)))
		phase(60, 1000)
		obs = append(obs, irqs)
	})
	totalHits = p.JITStats().Hits

	sig = fmt.Sprintf("obs=%v\n", obs)
	for i := 0; i < 2; i++ {
		sig += fmt.Sprintf("cpu%d cycles=%d levels=%v\n", i, p.CPUCycles(i), p.LevelCycles(i))
	}
	tr := p.Trace()
	sig += fmt.Sprintf("traps=%d\n", tr.Total())
	details := tr.Details()
	keys := make([]string, 0, len(details))
	for d := range details {
		keys = append(keys, d)
	}
	sort.Strings(keys)
	for _, d := range keys {
		sig += fmt.Sprintf("%s=%d\n", d, details[d])
	}
	return sig, applied, warmHits, totalHits
}

// TestJITFaultParity: for every fault kind, on a nested stack that
// promotes heavily (v8.3), a NEVE stack with deferred pages to corrupt
// (neve-vhe), and the three-level recursive stack (recursive-neve), the
// jit-on run must be byte-identical to the interpreted run.
func TestJITFaultParity(t *testing.T) {
	for _, name := range []string{"v8.3", "neve-vhe", "recursive-neve"} {
		for _, k := range fault.AllKinds() {
			k := k
			t.Run(fmt.Sprintf("%s/%s", name, k), func(t *testing.T) {
				on, appliedOn, warm, total := faultParityRun(t, name, false, k)
				off, appliedOff, _, offHits := faultParityRun(t, name, true, k)
				if appliedOn != appliedOff {
					t.Fatalf("fault applicability diverged: jit-on %v, jit-off %v", appliedOn, appliedOff)
				}
				if !appliedOn {
					if k != fault.VNCRCorrupt {
						t.Fatalf("kind %s unexpectedly inapplicable on %s", k, name)
					}
					t.Skipf("no NEVE pages on %s", name)
				}
				if warm == 0 {
					t.Fatalf("fault fired before any super-op replayed (hits=0 at injection)")
				}
				if name == "v8.3" && total == warm {
					// Only the heavy promoter must demonstrably keep
					// replaying across the fault; neve-vhe compiles so few
					// ops that a persistent GIC perturbation can retire its
					// causes outright (bailing to the interpreter is the
					// correct response either way).
					t.Fatalf("no super-op replayed after the fault (hits stuck at %d)", warm)
				}
				if offHits != 0 {
					t.Fatalf("jit-off run dispatched super-ops: %d hits", offHits)
				}
				if on != off {
					t.Fatalf("state diverged jit-on vs jit-off after %s:\n--- jit-on\n%s--- jit-off\n%s", k, on, off)
				}
			})
		}
	}
}
