package mem

import (
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := New(0)
	a1 := m.AllocPage()
	a2 := m.AllocPage()
	m.MustWrite64(a1, 0x1111)
	m.MustWrite64(a2+8, 0x2222)

	s := m.Snapshot()
	if s.Pages() != 2 {
		t.Fatalf("snapshot captured %d pages, want 2", s.Pages())
	}

	// Dirty a captured page, allocate a new one, write a fresh address.
	m.MustWrite64(a1, 0xdead)
	a3 := m.AllocPage()
	m.MustWrite64(a3, 0x3333)
	m.MustWrite64(0x7000_0000, 0x4444)

	m.Restore(s)
	if got := m.MustRead64(a1); got != 0x1111 {
		t.Errorf("restored a1 = %#x, want 0x1111", got)
	}
	if got := m.MustRead64(a2 + 8); got != 0x2222 {
		t.Errorf("restored a2+8 = %#x, want 0x2222", got)
	}
	if got := m.MustRead64(a3); got != 0 {
		t.Errorf("post-snapshot page survived restore: %#x", got)
	}
	if got := m.MustRead64(0x7000_0000); got != 0 {
		t.Errorf("post-snapshot write survived restore: %#x", got)
	}
	// The bump pointer rewound: reallocation replays the same address.
	if got := m.AllocPage(); got != a3 {
		t.Errorf("AllocPage after restore = %#x, want %#x (replay)", uint64(got), uint64(a3))
	}
}

func TestSnapshotIsImmutableUnderWrites(t *testing.T) {
	m := New(0)
	a := m.AllocPage()
	m.MustWrite64(a, 0xaaaa)
	s := m.Snapshot()

	// Write-after-snapshot must copy, not mutate the captured page:
	// restore still sees the captured value however often we dirty and
	// restore.
	for round := 0; round < 3; round++ {
		m.MustWrite64(a, uint64(round)+1)
		if got := m.MustRead64(a); got != uint64(round)+1 {
			t.Fatalf("round %d: live read = %#x", round, got)
		}
		m.Restore(s)
		if got := m.MustRead64(a); got != 0xaaaa {
			t.Fatalf("round %d: restored read = %#x, want 0xaaaa", round, got)
		}
	}
}

func TestSnapshotZeroPageAndWrite32CopyOnWrite(t *testing.T) {
	m := New(0)
	a := m.AllocPage()
	m.MustWrite64(a, 0xffff_ffff_ffff_ffff)
	s := m.Snapshot()

	m.ZeroPage(a)
	if got := m.MustRead64(a); got != 0 {
		t.Fatalf("ZeroPage left %#x", got)
	}
	m.Restore(s)
	if got := m.MustRead64(a); got != 0xffff_ffff_ffff_ffff {
		t.Fatalf("restore after ZeroPage = %#x", got)
	}

	if err := m.Write32(a+4, 0x1234); err != nil {
		t.Fatal(err)
	}
	m.Restore(s)
	if got := m.MustRead64(a); got != 0xffff_ffff_ffff_ffff {
		t.Fatalf("restore after Write32 = %#x", got)
	}
}

func TestSnapshotHighPages(t *testing.T) {
	m := New(0)
	const high Addr = 1 << 40
	m.MustWrite64(high, 0x5555)
	m.MustWrite64(0x10_0000, 0x6666)
	s := m.Snapshot()

	m.MustWrite64(high, 0x7777)
	m.MustWrite64(high+PageSize, 0x8888)
	m.Restore(s)
	if got := m.MustRead64(high); got != 0x5555 {
		t.Errorf("restored high page = %#x, want 0x5555", got)
	}
	if got := m.MustRead64(high + PageSize); got != 0 {
		t.Errorf("post-snapshot high page survived restore: %#x", got)
	}
	if got := m.MustRead64(0x10_0000); got != 0x6666 {
		t.Errorf("restored dir page = %#x, want 0x6666", got)
	}
}

func TestRestoreAllocsPerRun(t *testing.T) {
	m := New(0)
	for i := 0; i < 64; i++ {
		a := m.AllocPage()
		m.MustWrite64(a, uint64(i))
	}
	s := m.Snapshot()
	// Warm up: one dirty/restore cycle so any lazily grown structures
	// exist.
	m.MustWrite64(1<<20, 1)
	m.Restore(s)

	allocs := testing.AllocsPerRun(10, func() {
		m.MustWrite64(1<<20, 2) // one CoW page copy
		m.Restore(s)
	})
	// The only allocation on the cycle is the single unshared page copy;
	// Restore itself must be allocation-free.
	if allocs > 1 {
		t.Fatalf("dirty+restore cycle allocates %.1f objects per run, want <= 1", allocs)
	}
}

func TestPopulatedPagesSortedAndDeterministic(t *testing.T) {
	m := New(0)
	// Populate out of order, including a high page.
	addrs := []Addr{0x40_0000, 0x10_0000, 1 << 41, 0x20_0000, 1 << 40}
	for _, a := range addrs {
		m.MustWrite64(a, 1)
	}
	got := m.PopulatedPages()
	want := []Addr{0x10_0000, 0x20_0000, 0x40_0000, 1 << 40, 1 << 41}
	if len(got) != len(want) {
		t.Fatalf("PopulatedPages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PopulatedPages[%d] = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
		}
	}
}

func TestCopyUnsharesDestination(t *testing.T) {
	m := New(0)
	src, dst := m.AllocPage(), m.AllocPage()
	m.MustWrite64(src, 0x5555)
	m.MustWrite64(dst, 0xaaaa)
	s := m.Snapshot()

	m.MustCopy(dst, src, 8)
	if got := m.MustRead64(dst); got != 0x5555 {
		t.Fatalf("live destination = %#x, want the copied 0x5555", got)
	}
	m.Restore(s)
	if got := m.MustRead64(dst); got != 0xaaaa {
		t.Fatalf("snapshot destination = %#x after a copy, want 0xaaaa", got)
	}
	// A copy within one shared page unshares it too.
	m.MustCopy(src+8, src, 8)
	m.Restore(s)
	if got := m.MustRead64(src + 8); got != 0 {
		t.Fatalf("snapshot source page = %#x after an in-page copy, want 0", got)
	}
}
