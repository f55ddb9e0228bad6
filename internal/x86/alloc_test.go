package x86

import "testing"

// The x86 exit path must not allocate in counting mode (no trace
// recording), the configuration every sweep and benchmark runs: exits are
// staged in the per-depth pool, a forward is held by value, and the
// interrupt queues drain without shrinking their backing arrays.

func TestForwardedExitAllocs(t *testing.T) {
	s := NewStack(StackOptions{Nested: true, Shadowing: true})
	var allocs float64
	s.RunGuest(0, func(g *GuestCtx) {
		g.Hypercall() // warm the collector and the lazily built tables
		allocs = testing.AllocsPerRun(1000, func() { g.Hypercall() })
	})
	if allocs != 0 {
		t.Fatalf("forwarded nested vmcall allocates %.1f per op, want 0", allocs)
	}
}

func TestInterruptCycleAllocs(t *testing.T) {
	for _, nested := range []bool{false, true} {
		s := NewStack(StackOptions{Nested: nested, Shadowing: true})
		var post, drain float64
		s.RunGuest(0, func(g *GuestCtx) {
			cycle := func() {
				// A posted vector delivered at the next preemption point,
				// then a device interrupt taken as an external-interrupt
				// exit and re-posted to the guest.
				g.CPU.PostInterrupt(0x31)
				g.Work(1)
				g.CPU.AssertIRQ(0x51)
				g.Work(1)
			}
			cycle()
			post = testing.AllocsPerRun(1000, func() {
				g.CPU.PostInterrupt(0x31)
				g.Work(1)
			})
			drain = testing.AllocsPerRun(1000, cycle)
		})
		if post != 0 || drain != 0 {
			t.Fatalf("nested=%v: post/deliver allocates %.1f, device interrupt cycle %.1f per op, want 0", nested, post, drain)
		}
	}
}
