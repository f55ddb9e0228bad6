package fault

import "fmt"

// Env is the set of perturbations a platform exposes to the injector.
// Each method applies one fault drawn from rng and returns a description
// for the injection log; ok=false means the fault kind is not applicable
// to this stack (no NEVE pages to corrupt, no device window), in which
// case the injector falls through to the next kind.
//
// Implementations run inside the trap path, before the hypervisor vector:
// they must only queue interrupts, flip memory bits, or poke device
// state — never re-enter guest execution.
type Env interface {
	SpuriousIRQ(rng *Rand) (desc string, ok bool)
	CorruptVNCR(rng *Rand) (desc string, ok bool)
	FlipGuestBit(rng *Rand) (desc string, ok bool)
	DeviceNoise(rng *Rand) (desc string, ok bool)
}

// Injector applies a Plan against an Env. It is a budget in the CPU
// models' sense (jit.Budget): the CPUs report every trap through OnTrap,
// and the trace-JIT charges the traps of each replayed super-op through
// Admit, which refuses an op that would cross a firing trap, so the
// engine stays on under a plan. It is not safe for concurrent use (the
// machine model is single-goroutine).
type Injector struct {
	// Poison, when non-nil, runs after each applied injection. The
	// platform points it at the trace-JIT's recording poison: an
	// injection inside a recording writes tracked words, which promotion
	// would otherwise harvest as the op's delta and replay without it.
	Poison func()

	plan  Plan
	env   Env
	rng   *Rand
	kinds []Kind

	traps uint64
	done  int
	busy  bool
	log   []string
}

// NewInjector returns an injector for plan against env. An inactive plan
// yields an injector whose OnTrap does nothing.
func NewInjector(plan Plan, env Env) *Injector {
	kinds := plan.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	return &Injector{plan: plan, env: env, rng: NewRand(plan.Seed), kinds: kinds}
}

// Plan returns the injector's schedule.
func (in *Injector) Plan() Plan { return in.plan }

// Log returns one line per applied injection ("trap 200: spurious SPI 53"),
// in order. Deterministic for a given plan and workload.
func (in *Injector) Log() []string { return in.log }

// Injected returns how many faults have been applied.
func (in *Injector) Injected() int { return in.done }

// OnTrap advances the trap counter and, on schedule, applies one fault.
// Faults applied from inside the trap path can themselves trap once the
// perturbed state is consumed; the busy guard keeps an injection from
// recursively triggering another.
func (in *Injector) OnTrap() {
	if in == nil || in.busy || !in.plan.Active() {
		return
	}
	in.traps++
	if in.traps%in.plan.Every != 0 {
		return
	}
	if in.plan.Count > 0 && in.done >= in.plan.Count {
		return
	}
	in.busy = true
	defer func() { in.busy = false }()
	// Draw a kind; if the stack can't express it (e.g. VNCR corruption
	// without NEVE), rotate through the remaining kinds so a schedule
	// slot is only lost when nothing is applicable.
	start := in.rng.Intn(len(in.kinds))
	for i := 0; i < len(in.kinds); i++ {
		k := in.kinds[(start+i)%len(in.kinds)]
		if desc, ok := in.apply(k); ok {
			in.done++
			in.log = append(in.log, fmt.Sprintf("trap %d: %s", in.traps, desc))
			if in.Poison != nil {
				in.Poison()
			}
			return
		}
	}
}

// OnTick ignores guest steps: the schedule counts traps only (jit.Budget).
func (in *Injector) OnTick(uint64) {}

// Used returns the traps counted so far and no steps (jit.Budget).
func (in *Injector) Used() (traps, steps uint64) { return in.traps, 0 }

// Admit counts a replayed super-op's traps unless one of them would be
// the next firing trap while injections remain, and reports whether it
// did (jit.Budget). A refused op runs interpreted, so the injection lands
// on the same trap as without the trace-JIT; once Count faults are
// applied, everything is admitted.
func (in *Injector) Admit(traps, _ uint64) bool {
	if !in.admits(traps) {
		return false
	}
	in.traps += traps
	return true
}

// admits reports whether traps more traps reach no firing trap while
// injections remain.
func (in *Injector) admits(traps uint64) bool {
	if !in.plan.Active() || in.plan.Count > 0 && in.done >= in.plan.Count {
		return true
	}
	next := (in.traps/in.plan.Every + 1) * in.plan.Every
	return in.traps+traps < next
}

func (in *Injector) apply(k Kind) (string, bool) {
	switch k {
	case SpuriousIRQ:
		return in.env.SpuriousIRQ(in.rng)
	case VNCRCorrupt:
		return in.env.CorruptVNCR(in.rng)
	case PageFlip:
		return in.env.FlipGuestBit(in.rng)
	case DeviceNoise:
		return in.env.DeviceNoise(in.rng)
	default:
		return "", false
	}
}

// Combined charges a watchdog and an injector as one budget (jit.Budget),
// for a platform that has both. Admission is all-or-nothing: a super-op
// either side refuses charges neither.
type Combined struct {
	W  *Watchdog
	In *Injector
}

// OnTrap charges the watchdog, which may abort, then the injector, which
// may fire.
func (c Combined) OnTrap() {
	c.W.OnTrap()
	c.In.OnTrap()
}

// OnTick charges the watchdog's step budget.
func (c Combined) OnTick(steps uint64) { c.W.OnTick(steps) }

// Used returns the watchdog's counts; the injector's trap count moves in
// step with them outside injections, which poison any recording.
func (c Combined) Used() (traps, steps uint64) { return c.W.Used() }

// Admit charges both sides only if both admit the batch.
func (c Combined) Admit(traps, steps uint64) bool {
	if !c.In.admits(traps) || !c.W.Admit(traps, steps) {
		return false
	}
	c.In.traps += traps
	return true
}
