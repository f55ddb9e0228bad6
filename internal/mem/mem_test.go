package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x1000, 0xdeadbeefcafef00d)
	if got := m.MustRead64(0x1000); got != 0xdeadbeefcafef00d {
		t.Fatalf("Read64 = %#x, want %#x", got, uint64(0xdeadbeefcafef00d))
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New(0)
	if got := m.MustRead64(0x7f000); got != 0 {
		t.Fatalf("unwritten memory read %#x, want 0", got)
	}
	v32, err := m.Read32(0x7f000)
	if err != nil || v32 != 0 {
		t.Fatalf("Read32 = %#x, %v; want 0, nil", v32, err)
	}
}

func TestWrite32ReadBack(t *testing.T) {
	m := New(0)
	if err := m.Write32(0x2004, 0x12345678); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read32(0x2004)
	if err != nil || v != 0x12345678 {
		t.Fatalf("Read32 = %#x, %v", v, err)
	}
	// The 32-bit write must land little-endian inside the 64-bit view.
	if got := m.MustRead64(0x2000); got != 0x12345678<<32 {
		t.Fatalf("Read64 = %#x, want %#x", got, uint64(0x12345678)<<32)
	}
}

func TestLimitEnforced(t *testing.T) {
	m := New(1 << 20)
	if err := m.Write64(1<<20, 1); err == nil {
		t.Fatal("write beyond limit succeeded")
	}
	if err := m.Write64(1<<20-8, 1); err != nil {
		t.Fatalf("write at limit-8 failed: %v", err)
	}
	var bad *ErrBadAddress
	if err := m.Write64(1<<21, 1); err == nil {
		t.Fatal("expected error")
	} else if e, ok := err.(*ErrBadAddress); !ok {
		t.Fatalf("error type %T, want %T", err, bad)
	} else if e.Addr != 1<<21 {
		t.Fatalf("error addr %#x", uint64(e.Addr))
	}
}

func TestPageStraddleRejected(t *testing.T) {
	m := New(0)
	if err := m.Write64(PageSize-4, 1); err == nil {
		t.Fatal("page-straddling write succeeded")
	}
	if _, err := m.Read64(PageSize - 4); err == nil {
		t.Fatal("page-straddling read succeeded")
	}
}

func TestAllocPageDistinctAndZeroed(t *testing.T) {
	m := New(0)
	seen := map[Addr]bool{}
	for i := 0; i < 64; i++ {
		p := m.AllocPage()
		if p.PageOff() != 0 {
			t.Fatalf("AllocPage returned unaligned %#x", uint64(p))
		}
		if seen[p] {
			t.Fatalf("AllocPage returned %#x twice", uint64(p))
		}
		seen[p] = true
		if got := m.MustRead64(p); got != 0 {
			t.Fatalf("fresh page not zero: %#x", got)
		}
	}
}

func TestAllocSkipsPopulatedPages(t *testing.T) {
	m := New(0)
	// Populate the page the allocator would hand out first.
	m.MustWrite64(1<<20, 0xff)
	p := m.AllocPage()
	if p == 1<<20 {
		t.Fatal("allocator handed out an already-populated page")
	}
}

func TestZeroPage(t *testing.T) {
	m := New(0)
	p := m.AllocPage()
	m.MustWrite64(p+8, 42)
	m.ZeroPage(p + 16) // any address within the page
	if got := m.MustRead64(p + 8); got != 0 {
		t.Fatalf("ZeroPage left %#x", got)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.PageBase() != 0x12000 {
		t.Fatalf("PageBase = %#x", uint64(a.PageBase()))
	}
	if a.PageOff() != 0x345 {
		t.Fatalf("PageOff = %#x", a.PageOff())
	}
}

func TestQuickRoundTrip(t *testing.T) {
	m := New(0)
	f := func(page uint32, off uint16, v uint64) bool {
		a := Addr(page)<<PageShift + Addr(off%(PageSize/8))*8
		m.MustWrite64(a, v)
		return m.MustRead64(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPopulatedPagesSorted(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x5000, 1)
	m.MustWrite64(0x3000, 1)
	m.MustWrite64(0x9000, 1)
	pages := m.PopulatedPages()
	want := []Addr{0x3000, 0x5000, 0x9000}
	if len(pages) != len(want) {
		t.Fatalf("PopulatedPages = %v", pages)
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("PopulatedPages[%d] = %#x, want %#x", i, uint64(pages[i]), uint64(want[i]))
		}
	}
}

func TestWordLayoutLittleEndian(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x3000, 0x1122334455667788)
	if lo, err := m.Read32(0x3000); err != nil || lo != 0x55667788 {
		t.Fatalf("low word = %#x, %v; want 0x55667788", lo, err)
	}
	if hi, err := m.Read32(0x3004); err != nil || hi != 0x11223344 {
		t.Fatalf("high word = %#x, %v; want 0x11223344", hi, err)
	}
}

func TestWrite32ChangesOnlyItsBytes(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x3000, 0xffff_ffff_ffff_ffff)
	m.MustWrite64(0x3008, 0xeeee_eeee_eeee_eeee)
	if err := m.Write32(0x3004, 0x01020304); err != nil {
		t.Fatal(err)
	}
	if got := m.MustRead64(0x3000); got != 0x01020304_ffffffff {
		t.Fatalf("word = %#x, want 0x01020304ffffffff", got)
	}
	if got := m.MustRead64(0x3008); got != 0xeeee_eeee_eeee_eeee {
		t.Fatalf("next word = %#x, want it untouched", got)
	}
}

func TestCopyMatchesWordLoop(t *testing.T) {
	m := New(0)
	for i := uint64(0); i < 8; i++ {
		m.MustWrite64(0x4000+Addr(i*8), 0x0101_0101_0101_0101*(i+1))
	}
	m.MustWrite64(0x5038, 0x77) // just past the destination run
	m.MustCopy(0x5000, 0x4008, 7*8)
	for i := uint64(0); i < 7; i++ {
		if got, want := m.MustRead64(0x5000+Addr(i*8)), m.MustRead64(0x4008+Addr(i*8)); got != want {
			t.Fatalf("word %d = %#x, want %#x", i, got, want)
		}
	}
	if got := m.MustRead64(0x5038); got != 0x77 {
		t.Fatalf("word past the run = %#x, want 0x77 untouched", got)
	}
}

func TestCopyFromUnwrittenWritesZeros(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x6010, 0xdead)
	m.MustWrite64(0x6018, 0xbeef)
	if err := m.Copy(0x6010, 0x9000, 16); err != nil {
		t.Fatal(err)
	}
	if a, b := m.MustRead64(0x6010), m.MustRead64(0x6018); a != 0 || b != 0 {
		t.Fatalf("copied %#x, %#x from an unwritten page, want zeros", a, b)
	}
	// The destination page of a zero copy is allocated, as Write64 of a
	// zero would allocate it; the source stays unwritten.
	m.MustCopy(0xa000, 0x9000, 8)
	if got := m.PopulatedPages(); len(got) != 2 || got[0] != 0x6000 || got[1] != 0xa000 {
		t.Fatalf("populated = %#x, want [0x6000 0xa000]", got)
	}
}

func TestCopyRejectsBadRuns(t *testing.T) {
	m := New(1 << 20)
	for _, c := range []struct {
		dst, src Addr
		n        int
	}{
		{0x2000, 0x1ff8, 16},           // source crosses a page
		{0x1ff8, 0x2000, 16},           // destination crosses a page
		{1<<20 - 8, 0x2000, 16},        // destination past the limit
		{0x2000, 1<<20 - 8, 16},        // source past the limit
		{0x2000, 0x3000, 0},            // empty run
		{0x2000, 0x3000, -8},           // negative run
		{0x2000, 0x3000, PageSize + 8}, // longer than a page
	} {
		err := m.Copy(c.dst, c.src, c.n)
		if _, ok := err.(*ErrBadAddress); !ok {
			t.Errorf("Copy(%#x, %#x, %d) = %v, want *ErrBadAddress", uint64(c.dst), uint64(c.src), c.n, err)
		}
	}
	if got := m.PopulatedPages(); len(got) != 0 {
		t.Fatalf("rejected copies populated %#x", got)
	}
}

func TestCopyFiresTapOnce(t *testing.T) {
	m := New(0)
	m.MustWrite64(0x1000, 1)
	taps := 0
	m.Tap = func() { taps++ }
	m.MustCopy(0x2000, 0x1000, 21*8)
	if taps != 1 {
		t.Fatalf("Tap fired %d times for one copy, want 1", taps)
	}
}
