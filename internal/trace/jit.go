package trace

// This file is the trace side of the trace-JIT layer (internal/jit): a
// super-op must replay the exact counter increments the recorded trap
// sequence would have produced, so the collector exposes a snapshot
// (CounterMark), a pure-addition diff (CounterDelta), and a replay
// application. The diff is computed only while promoting a recording — the
// replay hit path applies a precomputed delta and allocates nothing.

// JITStats counts super-op dispatch outcomes. Exactly one of Hits, Misses,
// or Bailouts increments per dispatched trap: Hits (a super-op replayed),
// Misses (no super-op for the trap cause yet), or Bailouts (a super-op
// existed but its guard did not match and the trap ran interpreted).
// Evictions is always zero: the engine no longer evicts chain variants. The
// field stays because the benchmark's jit.evictions.n metric reads it.
type JITStats struct {
	Hits      uint64
	Misses    uint64
	Bailouts  uint64
	Evictions uint64
}

// Add returns the field-wise sum (for aggregating per-cell stats).
func (s JITStats) Add(o JITStats) JITStats {
	return JITStats{s.Hits + o.Hits, s.Misses + o.Misses, s.Bailouts + o.Bailouts, s.Evictions + o.Evictions}
}

// Sub returns the field-wise difference (for per-cell deltas on a reused
// engine).
func (s JITStats) Sub(o JITStats) JITStats {
	return JITStats{s.Hits - o.Hits, s.Misses - o.Misses, s.Bailouts - o.Bailouts, s.Evictions - o.Evictions}
}

// BeginCounterLog arms the touched-location log: until the matching
// EndCounterLog (or AbortCounterLog), Trap appends the location of every
// counter it increments. The recording's delta is then the multiset of
// logged locations — every Trap increment is exactly +1 — so the cost is
// proportional to the increments the recording made, not to the size of
// the counter tables. The log's backing storage is reused across
// recordings.
func (c *Collector) BeginCounterLog() {
	c.tReasons = c.tReasons[:0]
	c.tDense = c.tDense[:0]
	c.tSparse = c.tSparse[:0]
	c.logGen = c.gen
	c.logRecent = c.recentTotal
	c.logging = true
}

// AbortCounterLog disarms the log without producing a delta.
func (c *Collector) AbortCounterLog() { c.logging = false }

type denseEntry struct {
	idx int32
	n   uint64
}

type sparseEntry struct {
	k addrKey
	n uint64
}

// CounterDelta is the aggregate counter increment between a mark and a later
// collector state, expressible purely as additions. Applying it commutes, so
// the order entries were discovered in does not affect the final counters.
type CounterDelta struct {
	byReason [numReasons]uint64
	dense    []denseEntry
	sparse   []sparseEntry
}

// Empty reports whether the delta changes nothing.
func (d *CounterDelta) Empty() bool {
	if len(d.dense) != 0 || len(d.sparse) != 0 {
		return false
	}
	for _, n := range d.byReason {
		if n != 0 {
			return false
		}
	}
	return true
}

// EndCounterLog disarms the log and aggregates it into d. It returns
// false — the recording is not promotable — when the log is not a faithful
// account of the counter mutations since BeginCounterLog: event recording
// is active (replay cannot reproduce the retained Event list), or a Reset
// or checkpoint Restore rewrote the counters behind the log's back (the
// generation moved). The recent ring's share is LogTail's.
func (c *Collector) EndCounterLog(d *CounterDelta) bool {
	c.logging = false
	if c.record || c.gen != c.logGen {
		return false
	}
	d.byReason = [numReasons]uint64{}
	for _, r := range c.tReasons {
		d.byReason[r]++
	}
	// The touched lists are tiny (one entry per trap in one recorded
	// sequence), so duplicate aggregation is a linear scan.
	d.dense = d.dense[:0]
	for _, idx := range c.tDense {
		merged := false
		for i := range d.dense {
			if d.dense[i].idx == idx {
				d.dense[i].n++
				merged = true
				break
			}
		}
		if !merged {
			d.dense = append(d.dense, denseEntry{idx: idx, n: 1})
		}
	}
	d.sparse = d.sparse[:0]
	for _, k := range c.tSparse {
		merged := false
		for i := range d.sparse {
			if d.sparse[i].k == k {
				d.sparse[i].n++
				merged = true
				break
			}
		}
		if !merged {
			d.sparse = append(d.sparse, sparseEntry{k: k, n: 1})
		}
	}
	return true
}

// ApplyCounterDelta replays the delta onto the collector: the counting
// effect of the recorded trap sequence in one step.
func (c *Collector) ApplyCounterDelta(d *CounterDelta) {
	for i, n := range d.byReason {
		if n != 0 {
			c.byReason[i] += n
		}
	}
	for _, e := range d.dense {
		c.dense[e.idx] += e.n
	}
	for _, e := range d.sparse {
		c.sparse[e.k] += e.n
	}
}

// LogTail appends to dst the events the recent ring gained since
// BeginCounterLog that it still holds — the last min(n, RecentCap()) of
// the n pushed — oldest first, and returns the extended slice and n. Call
// it before the next Trap. With the ring off, n is zero.
func (c *Collector) LogTail(dst []Event) ([]Event, uint64) {
	n := c.recentTotal - c.logRecent
	k := int(min(n, uint64(len(c.recent))))
	i := c.recentNext - k
	if i < 0 {
		i += len(c.recent)
	}
	for ; k > 0; k-- {
		dst = append(dst, c.recent[i])
		if i++; i == len(c.recent) {
			i = 0
		}
	}
	return dst, n
}

// PushRecent replays a recorded sequence's recent-ring effect: events are
// the last of the n events it pushed, oldest first, with cycles relative
// to base. The ring ends up as if all n had been pushed.
func (c *Collector) PushRecent(events []Event, base, n uint64) {
	for _, ev := range events {
		ev.Cycle += base
		c.recent[c.recentNext] = ev
		if c.recentNext++; c.recentNext == len(c.recent) {
			c.recentNext = 0
		}
	}
	c.recentTotal += n
}
