package gic

// DistCheckpoint captures the distributor's interrupt state. The target
// wiring is fixed at machine assembly and is not part of the capture.
type DistCheckpoint struct {
	enabled [NumINTIDs]bool
	pending [NumINTIDs]bool
	active  [NumINTIDs]bool
	route   [NumINTIDs]int
	ctlr    uint32
}

// Checkpoint captures the distributor state.
func (d *Dist) Checkpoint() *DistCheckpoint {
	cp := &DistCheckpoint{
		enabled: d.bits[wEnabled],
		pending: d.bits[wPending],
		active:  d.bits[wActive],
		route:   d.route,
		ctlr:    uint32(d.w[wCTLR]),
	}
	for i := 0; i < jitINTIDs; i++ {
		cp.enabled[i] = d.w[wEnabled]&(1<<uint(i)) != 0
		cp.pending[i] = d.w[wPending]&(1<<uint(i)) != 0
		cp.active[i] = d.w[wActive]&(1<<uint(i)) != 0
	}
	return cp
}

// Restore returns the distributor to a checkpointed state.
func (d *Dist) Restore(cp *DistCheckpoint) {
	d.bits = [3][NumINTIDs]bool{cp.enabled, cp.pending, cp.active}
	d.route = cp.route
	d.w = [numWords]uint64{
		wEnabled: pack(cp.enabled[:jitINTIDs]),
		wPending: pack(cp.pending[:jitINTIDs]),
		wActive:  pack(cp.active[:jitINTIDs]),
		wCTLR:    uint64(cp.ctlr),
	}
	d.gen++
}

func pack(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
