package gic

import "github.com/nevesim/neve/internal/jit"

// jitINTIDs bounds the interrupt IDs whose state lives in the packed,
// trace-JIT-tracked words. Every interrupt the model actually signals —
// SGIs, PPIs, and the device SPIs — lies below it; mutations at or above
// it, and all routing changes, bump gen instead, which fails the guard of
// every previously compiled super-op.
const jitINTIDs = 64

// Tracked word indices into Dist.w: the enabled/pending/active state of
// the interrupts below jitINTIDs, one bit each, and the control register.
const (
	wEnabled = iota
	wPending
	wActive
	wCTLR
	numWords
)

// SetJIT registers the distributor's tracked words with a trace-JIT
// engine (nil detaches).
func (d *Dist) SetJIT(j *jit.Engine) {
	d.jt = nil
	if j != nil {
		d.jt = j.Tap(j.RegisterFile(d.w[:]))
	}
}

// Gen returns the distributor's coarse-mutation generation: it moves on
// every change the tracked words do not express.
func (d *Dist) Gen() uint64 { return d.gen }

// bit reads interrupt i's state in array a (wEnabled, wPending, wActive).
func (d *Dist) bit(a, i int) bool {
	if i >= jitINTIDs {
		return d.bits[a][i]
	}
	d.jt.Read(a)
	return d.w[a]&(1<<uint(i)) != 0
}

// setBit funnels every interrupt-state mutation. A packed word is
// read-modify-written, so its read is reported before the write.
func (d *Dist) setBit(a, i int, v bool) {
	if i >= jitINTIDs {
		d.bits[a][i] = v
		d.gen++
		return
	}
	d.jt.Read(a)
	d.jt.Write(a)
	if v {
		d.w[a] |= 1 << uint(i)
	} else {
		d.w[a] &^= 1 << uint(i)
	}
}
