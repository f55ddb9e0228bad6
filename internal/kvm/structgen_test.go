package kvm

import (
	"testing"

	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/virtio"
)

// TestStructuralGeneration pins what the trace-JIT's structural
// generation means: one name per structural state. Equal facts share a
// generation however they were reached, any differing fact a replay could
// depend on gives a different one, and a restore names the checkpoint's
// state again.
func TestStructuralGeneration(t *testing.T) {
	t.Run("build-order", func(t *testing.T) {
		s := NewVMStack(StackOptions{CPUs: 1})
		s.RunGuest(0, func(g *GuestCtx) { g.Hypercall() })
		cp := s.Checkpoint()
		g0 := s.structGen()
		var gens [2]uint64
		for i, order := range [][2]func(*GuestCtx){
			{(*GuestCtx).EnableStage1, virtioInit},
			{virtioInit, (*GuestCtx).EnableStage1},
		} {
			s.Restore(cp)
			s.RunGuest(0, func(g *GuestCtx) {
				order[0](g)
				order[1](g)
			})
			gens[i] = s.structGen()
		}
		if gens[0] != gens[1] {
			t.Fatalf("two build orders of one structure: generations %d and %d", gens[0], gens[1])
		}
		if gens[0] == g0 {
			t.Fatalf("building the Stage-1 tables and the virtio driver left the generation at %d", g0)
		}
	})

	t.Run("shadow-s2-root", func(t *testing.T) {
		s := NewNestedStack(StackOptions{CPUs: 1})
		s.RunGuest(0, func(g *GuestCtx) { g.Hypercall() })
		g0 := s.structGen()
		v := s.VM.VCPUs[0]
		if v.shadowS2 == nil {
			t.Fatal("nested run built no shadow Stage-2 tables")
		}
		v.shadowS2 = mmu.NewTables(s.Host.backing())
		s.Host.bumpGen()
		if s.structGen() == g0 {
			t.Fatal("a different shadow Stage-2 root kept the generation")
		}
	})

	t.Run("queue-pfn", func(t *testing.T) {
		s := NewVMStack(StackOptions{CPUs: 1})
		var gens [2]uint64
		s.RunGuest(0, func(g *GuestCtx) {
			for i, pfn := range []mem.Addr{virtioRingIPA, virtioRingIPA + mem.PageSize} {
				g.DeviceWrite(VirtioRegOff+virtio.RegQueuePFN, uint64(pfn)>>mem.PageShift)
				gens[i] = s.structGen()
			}
		})
		if gens[0] == gens[1] {
			t.Fatal("a different virtio queue PFN kept the generation")
		}
	})

	t.Run("spi-route", func(t *testing.T) {
		s := NewVMStack(StackOptions{CPUs: 2})
		g0 := s.structGen()
		s.M.Dist.Route(40, 1)
		if s.structGen() == g0 {
			t.Fatal("a different SPI route kept the generation")
		}
		s.M.Dist.Route(40, 0)
		if got := s.structGen(); got != g0 {
			t.Fatalf("routing back: generation %d, want %d", got, g0)
		}
	})

	t.Run("restore", func(t *testing.T) {
		s := NewVMStack(StackOptions{CPUs: 1})
		s.RunGuest(0, func(g *GuestCtx) { g.Hypercall() })
		cp := s.Checkpoint()
		g0 := s.structGen()
		s.RunGuest(0, func(g *GuestCtx) { g.EnableStage1() })
		if s.structGen() == g0 {
			t.Fatal("building the Stage-1 tables left the generation")
		}
		s.Restore(cp)
		if got := s.structGen(); got != g0 {
			t.Fatalf("restore: generation %d, want the checkpoint's %d", got, g0)
		}
	})

	// An op recorded in state A must not replay after a restore into a
	// state B whose tracked words are identical but whose structure
	// differs. A has no virtio backend, so a kick returns early; B is A's
	// checkpoint plus a backend, so a kick drains the ring. The JIT-on
	// run bails there and ends in exactly the state of its JIT-off twin.
	t.Run("restore-into-other-structure", func(t *testing.T) {
		kicks := func(s *Stack, n int) {
			s.RunGuest(0, func(g *GuestCtx) {
				for i := 0; i < n; i++ {
					g.DeviceWrite(VirtioRegOff+virtio.RegQueueNotify, 0)
				}
			})
		}
		var digests [2]string
		for i, jitOn := range []bool{true, false} {
			s := NewVMStack(StackOptions{CPUs: 1})
			if jitOn {
				s.InstallJIT()
			}
			s.RunGuest(0, func(g *GuestCtx) { g.DeviceRead(VirtioRegOff + virtio.RegStatus) })
			cpA := s.Checkpoint()
			// B differs from A only outside the tracked words.
			s.VM.echo = &virtio.Echo{}
			s.Host.bumpGen()
			cpB := s.Checkpoint()

			s.Restore(cpA)
			kicks(s, 4)
			before := s.JITStats()
			if jitOn && before.Hits == 0 {
				t.Fatal("no kick replayed in state A")
			}
			s.Restore(cpB)
			kicks(s, 1)
			if got := s.JITStats().Sub(before); jitOn && (got.Hits != 0 || got.Bailouts == 0) {
				t.Fatalf("the first kick in state B did not bail: %+v", got)
			}
			digests[i] = guardDigest(s, nil)
		}
		if digests[0] != digests[1] {
			t.Fatalf("jit-on state diverged from the jit-off twin:\n--- on\n%s--- off\n%s", digests[0], digests[1])
		}
	})
}

func virtioInit(g *GuestCtx) {
	if err := g.VirtioInit(); err != nil {
		panic(err)
	}
}

// TestIRQHandlerOutsideGeneration proves that guest IRQ handlers need no
// place in the structural generation: HandleVIRQ poisons before it runs
// one, so no super-op replays over a handler. A nested guest's self-IPI
// is delivered inside the host's handling of the guest hypervisor's
// return, so the handler runs within a recording. Replacing the handler
// keeps the generation, and each handler runs on every delivery, as in
// the JIT-off twin.
func TestIRQHandlerOutsideGeneration(t *testing.T) {
	var counts [2][2]uint64
	for i, jitOn := range []bool{true, false} {
		s := NewNestedStack(StackOptions{CPUs: 1})
		if jitOn {
			s.InstallJIT()
		}
		s.RunGuest(0, func(g *GuestCtx) {
			for h := range counts[i] {
				gen := s.structGen()
				g.OnIRQ(func(int) { counts[i][h]++ })
				if s.structGen() != gen {
					t.Fatal("OnIRQ moved the structural generation")
				}
				for r := 0; r < 6; r++ {
					g.SendIPI(0, 3)
					g.Work(10)
				}
			}
		})
		if jitOn && s.JITStats().Hits == 0 {
			t.Fatal("no super-op replayed")
		}
	}
	if counts[0] != counts[1] || counts[0] != [2]uint64{6, 6} {
		t.Fatalf("handler calls (first, second): jit on %v, jit off %v, want [6 6] in both", counts[0], counts[1])
	}
}
