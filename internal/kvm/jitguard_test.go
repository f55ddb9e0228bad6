package kvm

import (
	"fmt"
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/virtio"
)

// guardDigest renders every piece of state the trace-JIT guards or
// commits — tracked words, queues, contexts, clocks, trap counts — plus a
// row's observations, so a replay that skipped a guard or a write shows
// up as a diff against the interpreted twin.
func guardDigest(s *Stack, obs []uint64) string {
	out := fmt.Sprintf("obs=%v traps=%d dist=%v\n", obs, s.M.Trace.Total(), *s.M.Dist.Checkpoint())
	for _, c := range s.M.CPUs {
		// The checkpoint holds the sink itself, which differs between
		// twins: digest its presence, then drop it.
		out += fmt.Sprintf("cpu%d sink=%v ", c.ID, c.VIRQ() != nil)
		c.SetVIRQ(nil)
		out += fmt.Sprintf("%v\n", *c.Checkpoint())
	}
	for _, h := range s.hyps() {
		f := h.pendingFwd[0]
		out += fmt.Sprintf("%s loaded=%v alloc=%v fwd=%v %v\n", h.Cfg.Name, h.loaded.w, h.alloc.w, f.flag, f.rec != nil)
		for _, vm := range h.VMs {
			out += fmt.Sprintf(" %s vio=%v on=%v echo=%v\n", vm.Name, vm.vio.w, vm.virtioOn, vm.echo != nil)
			for _, v := range vm.VCPUs {
				out += fmt.Sprintf("  %s st=%v entry=%v %v virq=%v el1=%v vel2=%v virt=%v page=%v\n", v, v.st.w,
					v.pendingEntry.flag, v.pendingEntry.rec != nil, v.pendingVIRQ, v.EL1.regs, v.VEL2.regs, v.VirtEL1.regs, v.PageCtx.regs)
			}
		}
	}
	return out
}

// guardRow is one state group the former state walk covered. run drives
// the stack's innermost guest on vCPU 0: it warms a cause until a super-op
// touching the group replays, calls promoted, perturbs the group between
// two dispatches, and dispatches again.
type guardRow struct {
	name  string
	stack func() *Stack
	run   func(s *Stack, g *GuestCtx, promoted func()) []uint64
}

// ipiRound sends an IPI from vCPU 0 to vCPU 1 and lets core 1 take it.
func ipiRound(s *Stack, g *GuestCtx) {
	g.SendIPI(1, 3)
	s.Host.Service(s.M.CPUs[1])
}

// ipiStack is a two-vCPU VM whose vCPU 1 is resident on core 1, counting
// the interrupts it receives.
func ipiStack(got *uint64) *Stack {
	s := NewVMStack(StackOptions{CPUs: 2})
	v1 := s.VM.VCPUs[1]
	s.Host.enterSwitch(s.M.CPUs[1], v1, modeGuestOS)
	v1.Guest.OnIRQ(func(int) { *got++ })
	return s
}

// TestJITGuardsFormerWalkedState pins, for each state group the trace-JIT
// once walked wholesale and now guards by read set, queue or generation,
// that a super-op touching the group stays sound when the group changes
// between dispatches: the JIT-on run ends in exactly the state of its
// JIT-off twin.
func TestJITGuardsFormerWalkedState(t *testing.T) {
	var irqs uint64
	rows := []guardRow{{
		// The CPU mode words: the hypercall's world switch writes the
		// guest level and VIRQ sink, which replay must restore.
		name:  "cpu-mode",
		stack: func() *Stack { return NewVMStack(StackOptions{CPUs: 1}) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			for i := 0; i < 4; i++ {
				g.Hypercall()
			}
			promoted()
			g.CPU.SetVIRQ(nil)
			g.CPU.SetGuestLevel(5)
			g.Hypercall()
			return []uint64{uint64(g.CPU.Level()), b2u(g.CPU.VIRQ() != nil)}
		},
	}, {
		// A hypervisor's loaded context: the exit path reads which vCPU
		// the core runs.
		name:  "loaded",
		stack: func() *Stack { return NewVMStack(StackOptions{CPUs: 2}) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			for i := 0; i < 4; i++ {
				g.Hypercall()
			}
			promoted()
			s.Host.cur(g.CPU).load(s.VM.VCPUs[1], modeGuestOS)
			g.Hypercall()
			return nil
		},
	}, {
		// A vCPU's bookkeeping: PSCI CPU_ON reads its target from x0.
		name:  "vcpu",
		stack: func() *Stack { return NewVMStack(StackOptions{CPUs: 2}) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			var obs []uint64
			for i := 0; i < 4; i++ {
				obs = append(obs, g.CPUOn(5))
			}
			promoted()
			return append(obs, g.CPUOn(1))
		},
	}, {
		// A VM's virtio registers: a status read returns the register.
		name:  "virtio",
		stack: func() *Stack { return NewVMStack(StackOptions{CPUs: 1}) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			var obs []uint64
			for i := 0; i < 4; i++ {
				obs = append(obs, g.DeviceRead(VirtioRegOff+virtio.RegStatus))
			}
			promoted()
			g.DeviceWrite(VirtioRegOff+virtio.RegStatus, 0xf)
			return append(obs, g.DeviceRead(VirtioRegOff+virtio.RegStatus))
		},
	}, {
		// The distributor's packed words: the host's kick sets the
		// SGI pending bit, which replay must set again after it clears.
		name:  "dist",
		stack: func() *Stack { return ipiStack(&irqs) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			for i := 0; i < 4; i++ {
				ipiRound(s, g)
			}
			promoted()
			s.M.Dist.Activate(KickSGI)
			ipiRound(s, g)
			return []uint64{irqs}
		},
	}, {
		// A CPU's pending physical interrupts: the kick queues one on
		// the target core, which the target drains between dispatches.
		name:  "cpu-irq-queue",
		stack: func() *Stack { return ipiStack(&irqs) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			for i := 0; i < 4; i++ {
				ipiRound(s, g)
			}
			promoted()
			s.M.CPUs[1].AssertIRQ(KickSGI)
			ipiRound(s, g)
			return []uint64{irqs}
		},
	}, {
		// A vCPU's pending virtual interrupts: the IPI queues one on the
		// target vCPU, flushed into its list registers on core 1.
		name:  "vcpu-virq-queue",
		stack: func() *Stack { return ipiStack(&irqs) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			for i := 0; i < 4; i++ {
				ipiRound(s, g)
			}
			promoted()
			s.Host.injectVIRQ(s.VM.VCPUs[1], 4)
			ipiRound(s, g)
			return []uint64{irqs}
		},
	}, {
		// The structural generation: a kick with no virtio backend
		// returns early; once the guest programs a queue, the backend
		// exists and a kick drains the ring.
		name:  "generation",
		stack: func() *Stack { return NewVMStack(StackOptions{CPUs: 1}) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			kick := func() { g.DeviceWrite(VirtioRegOff+virtio.RegQueueNotify, 0) }
			for i := 0; i < 4; i++ {
				kick()
			}
			promoted()
			g.DeviceWrite(VirtioRegOff+virtio.RegQueuePFN, uint64(virtioRingIPA)>>mem.PageShift)
			kick()
			return nil
		},
	}, {
		// In-flight records: the guest hypervisor's exit path consumes a
		// queued forward. Queued from outside, the record is one no
		// recording created, so no super-op may replay over or consume it.
		name:  "in-flight",
		stack: func() *Stack { return NewNestedStack(StackOptions{CPUs: 1}) },
		run: func(s *Stack, g *GuestCtx, promoted func()) []uint64 {
			for i := 0; i < 4; i++ {
				g.Hypercall()
			}
			promoted()
			gh := s.GuestHyp
			for i := 0; i < 3; i++ {
				gh.pendingFwd[0].put(&fwd{child: gh, exc: arm.Exception{EC: arm.ECHVC64}})
				g.Hypercall()
			}
			return nil
		},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var digests [2]string
			for i, jitOn := range []bool{true, false} {
				irqs = 0
				s := row.stack()
				if jitOn {
					s.InstallJIT()
				}
				var obs []uint64
				s.RunGuest(0, func(g *GuestCtx) {
					obs = row.run(s, g, func() {
						if jitOn && s.JITStats().Hits == 0 {
							t.Fatalf("no super-op replayed before the perturbation")
						}
					})
				})
				digests[i] = guardDigest(s, obs)
			}
			if digests[0] != digests[1] {
				t.Fatalf("jit-on state diverged from the jit-off twin:\n--- on\n%s--- off\n%s", digests[0], digests[1])
			}
		})
	}
}
