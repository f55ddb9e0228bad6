package mem

import "github.com/nevesim/neve/internal/wire"

// Wire walks the snapshot: the allocation bump pointer, the population
// count, and the page set with full page contents in the snapshot's
// canonical ascending-base order, so the same memory state always encodes
// to the same bytes (content addressing relies on this).
//
// Decoding materializes the snapshot against m: fresh private pages hold
// the decoded contents, and the directory leaves (plus their copy-on-write
// mirrors) that a later m.Restore will reinstall pages into are created
// up front. The decoded snapshot behaves exactly like one taken by
// m.Snapshot — it can be restored any number of times. On a malformed
// payload the codec's error is set and the partial snapshot must be
// discarded.
func (s *Snapshot) Wire(c *wire.Codec, m *Memory) {
	wire.U64(c, &s.allocNext)
	wire.Int(c, &s.populated)
	wire.Slice(c, &s.pages, func(c *wire.Codec, sp *snapPage) {
		wire.U64(c, &sp.base)
		if c.Decoding() {
			sp.p = new(page)
		}
		wire.Fixed(c, sp.p[:])
		if c.Decoding() && c.Err() == nil {
			m.materialize(c, sp.base)
		}
	})
}

// materialize checks a decoded page base and creates the directory leaf
// and copy-on-write mirror that Restore installs the page into.
func (m *Memory) materialize(c *wire.Codec, base Addr) {
	if base.PageOff() != 0 {
		c.Fail("mem: unaligned page base %#x", uint64(base))
		return
	}
	pn := uint64(base) >> PageShift
	if pn >= dirMaxPages {
		if m.high == nil {
			m.high = make(map[Addr]*page)
		}
		if m.sharedHigh == nil {
			m.sharedHigh = make(map[Addr]bool)
		}
		return
	}
	li := int(pn >> dirLeafBits)
	for li >= len(m.dir) {
		m.dir = append(m.dir, nil)
	}
	for len(m.shared) < len(m.dir) {
		m.shared = append(m.shared, nil)
	}
	if m.dir[li] == nil {
		m.dir[li] = new(dirLeaf)
	}
	if m.shared[li] == nil {
		m.shared[li] = new(sharedLeaf)
	}
}
