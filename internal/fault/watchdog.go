package fault

import "fmt"

// Watchdog aborts runs that livelock: a trap storm (the same fault
// re-taken forever, the exit-multiplication pathology run away) or a
// step-budget overrun. It is the CPU models' budget (arm.CPU.Budget,
// x86.CPU.Budget), alone or with an injector (Combined): when a budget is
// exceeded the watchdog panics with a *SimError, which the platform's
// recovery boundary returns — annotated with CPU state and recent trap
// history — instead of hanging the process. The trace-JIT charges
// replayed super-ops through Admit, so a budget does not turn the engine
// off.
//
// Budgets are cumulative across the platform's lifetime, matching how the
// experiments run one measured workload per built stack.
type Watchdog struct {
	// MaxTraps aborts after this many traps (0 = unlimited).
	MaxTraps uint64
	// MaxSteps aborts after this many Tick-charged guest instructions
	// (0 = unlimited).
	MaxSteps uint64

	traps uint64
	steps uint64
}

// Traps returns the number of traps observed.
func (w *Watchdog) Traps() uint64 { return w.traps }

// Reset zeroes the counters so the budgets apply to the next run in
// isolation. Pooled warm-boot platforms call this between sweep cells:
// without it the cumulative counts of earlier cells would eat into a
// later cell's budget and fault a healthy configuration.
func (w *Watchdog) Reset() {
	if w == nil {
		return
	}
	w.traps, w.steps = 0, 0
}

// Steps returns the number of guest instructions observed.
func (w *Watchdog) Steps() uint64 { return w.steps }

// OnTrap counts one trap and panics with a *SimError once the trap
// budget is exceeded.
func (w *Watchdog) OnTrap() {
	if w == nil {
		return
	}
	w.traps++
	if w.MaxTraps > 0 && w.traps > w.MaxTraps {
		panic(&SimError{
			Kind:  ErrTrapStorm,
			Traps: w.traps,
			Steps: w.steps,
			Msg: fmt.Sprintf("trap budget %d exceeded: the stack is trap-storming (livelock); "+
				"the recent-event history shows what keeps faulting", w.MaxTraps),
		})
	}
}

// OnTick counts n guest instructions and panics with a *SimError once
// the step budget is exceeded.
func (w *Watchdog) OnTick(n uint64) {
	if w == nil {
		return
	}
	w.steps += n
	if w.MaxSteps > 0 && w.steps > w.MaxSteps {
		panic(&SimError{
			Kind:  ErrStepBudget,
			Traps: w.traps,
			Steps: w.steps,
			Msg:   fmt.Sprintf("step budget %d exceeded: the guest is not making privileged progress", w.MaxSteps),
		})
	}
}

// Used returns the traps and guest instructions observed so far
// (jit.Budget).
func (w *Watchdog) Used() (traps, steps uint64) { return w.traps, w.steps }

// Admit counts traps and guest instructions only if neither budget would
// be exceeded, and reports whether it did (jit.Budget). A replayed
// super-op it refuses runs interpreted, and OnTrap or OnTick trips on the
// same trap or Tick as without the trace-JIT.
func (w *Watchdog) Admit(traps, steps uint64) bool {
	if w.MaxTraps > 0 && w.traps+traps > w.MaxTraps || w.MaxSteps > 0 && w.steps+steps > w.MaxSteps {
		return false
	}
	w.traps += traps
	w.steps += steps
	return true
}
