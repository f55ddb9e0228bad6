package timer

import "github.com/nevesim/neve/internal/arm"

// TimerCheckpoint captures the timer block's firing memory. The timer
// registers themselves live in the core's system register file and
// travel with the CPU checkpoint.
type TimerCheckpoint struct {
	firedAt map[arm.SysReg]uint64
}

// Checkpoint captures the timer state. The firing memory is keyed by each
// line's control register, the form the checkpoint codec encodes.
func (t *Timer) Checkpoint() TimerCheckpoint {
	cp := TimerCheckpoint{firedAt: make(map[arm.SysReg]uint64, numLines)}
	for li, l := range lines {
		if t.fired[li] {
			cp.firedAt[l.ctl] = t.firedAt[li]
		}
	}
	return cp
}

// Restore returns the timer block to a checkpointed state.
func (t *Timer) Restore(cp TimerCheckpoint) {
	for li, l := range lines {
		t.firedAt[li], t.fired[li] = cp.firedAt[l.ctl]
	}
}
