// Differential and robustness fuzzing of the NV/NEVE stacks (external
// test package: the fuzz harnesses drive whole platforms, which the fault
// package itself sits below in the import graph).
//
// Three targets:
//
//   - FuzzDifferentialNVvsNEVE: byte-driven guest programs run on the
//     v8.3 trap-and-emulate stack, the NEVE stack, and the all-disabled
//     NEVE ablation; every guest-visible value must agree and NEVE must
//     never trap more than NV (the paper's whole point).
//   - FuzzFaultPlanRecovery: arbitrary fault plans against a budgeted
//     stack must end in success or a typed *fault.SimError — never a raw
//     panic, never a hang.
//   - FuzzParsePlan: the plan grammar round-trips.
//
// Seed corpora live under testdata/fuzz/<FuzzName>/; `make fuzz-smoke`
// runs each target briefly in CI.
package fault_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/platform"
)

// scriptResult is everything a fuzz program observed on one stack.
type scriptResult struct {
	obs   []uint64
	traps uint64
	err   *fault.SimError
}

// runScript interprets data as a guest program on the named registry
// stack: each byte pair is one operation and its operand. Budgets backstop
// the run so no input can hang the fuzzer.
func runScript(t *testing.T, name string, data []byte) scriptResult {
	t.Helper()
	spec := platform.MustLookup(name)
	spec.MaxTraps = 500_000
	spec.MaxSteps = 50_000_000
	return runScriptSpec(t, spec, data, nil)
}

// runScriptJIT is runScript with the trace-JIT layer explicitly on or
// off and no watchdog budgets. Safe without a backstop — fuzz inputs are
// capped at 128 operations, each of bounded work. mid, when non-nil, is
// fired once halfway through the program — the point where warmed-up
// super-ops are replaying — so the jit-on
// and jit-off runs see the identical perturbation at the identical point.
func runScriptJIT(t *testing.T, name string, data []byte, jitOff bool, mid func(s *kvm.Stack)) scriptResult {
	t.Helper()
	spec := platform.MustLookup(name)
	spec.JITOff = jitOff
	return runScriptSpec(t, spec, data, mid)
}

func runScriptSpec(t *testing.T, spec platform.Spec, data []byte, mid func(s *kvm.Stack)) scriptResult {
	t.Helper()
	p := platform.MustBuild(spec)
	var res scriptResult
	err := p.RunGuestErr(0, func(g platform.Guest) {
		kg := g.(*kvm.GuestCtx)
		irqs := uint64(0)
		g.OnIRQ(func(int) { irqs++ })
		virtioUp := false
		for i := 0; i+1 < len(data); i += 2 {
			if mid != nil && 2*i >= len(data) {
				mid(p.ARM())
				mid = nil
			}
			op, arg := data[i], uint64(data[i+1])
			switch op % 8 {
			case 0:
				kg.RAMWrite64(arg%128*8, arg*0x9e3779b97f4a7c15+uint64(i))
				res.obs = append(res.obs, kg.RAMRead64(arg%128*8))
			case 1:
				res.obs = append(res.obs, g.DeviceRead(arg%60*8))
			case 2:
				g.Hypercall()
			case 3:
				// A guest-hypervisor-class register access sequence: EL1
				// system registers the stacks virtualize differently.
				kg.CPU.MSR(arm.TPIDR_EL1, arg)
				kg.CPU.MSR(arm.CONTEXTIDR_EL1, arg^0xff)
				res.obs = append(res.obs, kg.CPU.Reg(arm.TPIDR_EL1), kg.CPU.Reg(arm.CONTEXTIDR_EL1))
			case 4:
				if !virtioUp {
					if err := kg.VirtioInit(); err != nil {
						t.Fatalf("%s: VirtioInit: %v", spec.Name, err)
					}
					virtioUp = true
				}
				v, err := kg.VirtioEcho(arg + 1)
				if err != nil {
					v = ^uint64(0)
				}
				res.obs = append(res.obs, v)
			case 5:
				g.Work(arg*16 + 1)
			case 6:
				p.ARM().M.Dist.AssertSPI(platform.NICSPI)
				g.Work(400)
			case 7:
				res.obs = append(res.obs, kg.PSCIVersion())
			}
		}
		res.obs = append(res.obs, irqs)
	})
	if err != nil {
		if !errors.As(err, &res.err) {
			t.Fatalf("%s: non-SimError failure: %v", spec.Name, err)
		}
	}
	res.traps = p.Trace().Total()
	return res
}

// FuzzDifferentialNVvsNEVE runs each input on the v8.3 (FEAT_NV
// trap-and-emulate), NEVE, and fully-ablated NEVE stacks and asserts the
// architectural invariants: identical guest-visible state, no unrecovered
// failures, and NEVE trapping no more than NV.
func FuzzDifferentialNVvsNEVE(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 3, 7, 4, 9, 1, 5, 7, 0, 6, 0, 5, 8})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 3, 0xff, 3, 0x80, 4, 1, 4, 2})
	// One seed per fault kind (data[0] selects), each with enough leading
	// traps to promote super-ops before the kind fires at the midpoint.
	f.Add([]byte{1, 0, 2, 0, 2, 0, 3, 1, 3, 2, 3, 3, 2, 0, 2, 0, 5, 4, 6, 0})
	f.Add([]byte{3, 0, 2, 0, 3, 5, 2, 0, 3, 6, 2, 0, 3, 7, 6, 0, 5, 8, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // bound per-input runtime, not coverage
		}
		nv := runScript(t, "v8.3", data)
		if nv.err != nil {
			t.Fatalf("v8.3 stack died: %v\n%s", nv.err, nv.err.Diagnostic())
		}
		for _, name := range []string{"neve", "neve-ablate-none"} {
			got := runScript(t, name, data)
			if got.err != nil {
				t.Fatalf("%s stack died: %v\n%s", name, got.err, got.err.Diagnostic())
			}
			if !reflect.DeepEqual(got.obs, nv.obs) {
				t.Fatalf("%s diverged from v8.3:\n%v\nvs\n%v", name, got.obs, nv.obs)
			}
			if name == "neve" && got.traps > nv.traps {
				t.Fatalf("NEVE trapped more than NV: %d vs %d", got.traps, nv.traps)
			}
		}
		// Trace-JIT oracle: the same input with super-ops replaying and
		// with every trap interpreted must agree in all observables and
		// trap counts. v8.3 is the heavy promoter; neve exercises the
		// record/poison machinery and the tracked deferred-access-page
		// stores. A fault kind drawn from the input fires halfway through
		// the program — mid-replay — and
		// must perturb both runs identically: guarded-state perturbations
		// bail the super-op to the interpreter, never replay stale state.
		kinds := fault.AllKinds()
		var kind fault.Kind
		var seed uint64
		if len(data) > 0 {
			kind = kinds[int(data[0])%len(kinds)]
			seed = 0xfa220 + uint64(data[0])
		}
		mid := func(s *kvm.Stack) {
			if len(data) > 0 {
				applyFault(s, kind, fault.NewRand(seed))
			}
		}
		for _, name := range []string{"v8.3", "neve"} {
			jon := runScriptJIT(t, name, data, false, mid)
			joff := runScriptJIT(t, name, data, true, mid)
			if jon.err != nil || joff.err != nil {
				t.Fatalf("%s jit oracle died: on=%v off=%v", name, jon.err, joff.err)
			}
			if !reflect.DeepEqual(jon.obs, joff.obs) {
				t.Fatalf("%s diverged jit-on vs jit-off (fault %v mid-run):\n%v\nvs\n%v", name, kind, jon.obs, joff.obs)
			}
			if jon.traps != joff.traps {
				t.Fatalf("%s trap counts diverged jit-on vs jit-off (fault %v mid-run): %d vs %d", name, kind, jon.traps, joff.traps)
			}
		}
	})
}

// FuzzFaultPlanRecovery throws arbitrary fault plans at a budgeted stack:
// whatever the injector does, the run must end in success or a typed
// SimError. A raw panic or a hang is a bug in the recovery boundary.
func FuzzFaultPlanRecovery(f *testing.F) {
	f.Add(uint64(42), uint64(100), byte(0), byte(0), byte(2))
	f.Add(uint64(1), uint64(1), byte(3), byte(0xf), byte(1))
	f.Add(uint64(0xdead), uint64(7), byte(1), byte(2), byte(0))
	f.Fuzz(func(t *testing.T, seed, every uint64, count, kindsMask, stack byte) {
		plan := fault.Plan{Seed: seed, Every: 1 + every%256, Count: int(count % 16)}
		for _, k := range fault.AllKinds() {
			if kindsMask&(1<<uint(k)) != 0 {
				plan.Kinds = append(plan.Kinds, k)
			}
		}
		names := []string{"vm", "v8.3", "neve"}
		spec := platform.MustLookup(names[int(stack)%len(names)])
		spec.Faults = plan
		spec.MaxTraps = 200_000
		spec.MaxSteps = 20_000_000
		p, err := platform.Build(spec)
		if err != nil {
			t.Fatalf("constructed plan failed validation: %v", err)
		}
		err = p.RunGuestErr(0, func(g platform.Guest) {
			for i := 0; i < 200; i++ {
				g.Hypercall()
				g.Work(100)
				if i%8 == 0 {
					g.DeviceRead(0)
				}
			}
		})
		if err != nil {
			var se *fault.SimError
			if !errors.As(err, &se) {
				t.Fatalf("recovery boundary leaked a non-SimError: %v", err)
			}
			if se.Msg == "" {
				t.Fatalf("SimError with empty cause: %+v", se)
			}
		}
	})
}

// FuzzParsePlan: any string ParsePlan accepts renders back (String) to a
// string that parses to the identical plan, and the plan validates.
func FuzzParsePlan(f *testing.F) {
	f.Add("seed=42,every=100,count=5,kinds=irq+vncr+flip+device")
	f.Add("every=1")
	f.Add("off")
	f.Add("seed=9,every=0")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := fault.ParsePlan(s)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) accepted an invalid plan: %v", s, err)
		}
		rt, err := fault.ParsePlan(p.String())
		if err != nil {
			t.Fatalf("String() of parsed %q does not re-parse: %v", s, err)
		}
		if !reflect.DeepEqual(rt, p) {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", s, p, p.String(), rt)
		}
	})
}
