package workload

// Multi-vCPU workloads for the SMP scale-out experiments: interrupt-bound
// kernels whose cost is dominated by cross-vCPU communication through the
// GIC distributor, the paper's hackbench dynamic pushed to 8-64 vCPUs.
// Programs run under the kvm epoch-lockstep engine; they must keep all Go
// state per-vCPU so that epochs may execute on parallel goroutines.

// SMPAPI is the guest-side interface an SMP program runs against. It
// extends the single-vCPU API with the operations that only exist on a
// multi-vCPU guest: a scheduling yield, shared guest RAM, and the vCPU's
// own identity. kvm.SMPGuest implements it.
type SMPAPI interface {
	API
	Clock
	// Yield ends the vCPU's scheduling quantum (an epoch segment).
	Yield()
	// RAMRead64/RAMWrite64 access cache-coherent guest RAM shared by all
	// vCPUs.
	RAMRead64(off uint64) uint64
	RAMWrite64(off uint64, v uint64)
	// ArmTimer programs the vCPU's virtual timer to fire delta cycles
	// from now; the expiry is delivered like any other interrupt.
	ArmTimer(delta uint64)
	// DeviceKick rings the per-vCPU emulated device doorbell; the device
	// raises its completion interrupt on the issuing core.
	DeviceKick()
	// ID is the vCPU index.
	ID() int
}

// SMPProfile parameterizes one multi-vCPU workload; Programs instantiates
// it for a given vCPU count, so the same profile sweeps across machine
// widths.
type SMPProfile struct {
	Name        string
	Description string
	// Rounds is the number of communication rounds each vCPU executes.
	Rounds int
	// OpWork is the guest CPU work between communication events.
	OpWork uint64

	pattern func(p SMPProfile, n, i int) func(g SMPAPI)
}

// Programs returns one program per vCPU implementing the profile's
// communication pattern across n vCPUs.
func (p SMPProfile) Programs(n int) []func(g SMPAPI) {
	progs := make([]func(g SMPAPI), n)
	for i := 0; i < n; i++ {
		progs[i] = p.pattern(p, n, i)
	}
	return progs
}

// ipiRing is the IPI-storm pattern: every vCPU works briefly, kicks its
// ring successor, and yields — all n vCPUs funnel SGI writes through the
// one distributor every round (hackbench's scheduler-IPI shape at scale).
func ipiRing(p SMPProfile, n, i int) func(g SMPAPI) {
	return func(g SMPAPI) {
		for r := 0; r < p.Rounds; r++ {
			g.Work(p.OpWork)
			if n > 1 {
				g.SendIPI((i+1)%n, r%8)
			}
			g.Yield()
		}
	}
}

// fanOut is the broadcast pattern: vCPU 0 publishes a message in shared
// RAM and kicks every worker, so each round queues n-1 distributor
// transactions in a single epoch — the worst-case contention burst.
func fanOut(p SMPProfile, n, i int) func(g SMPAPI) {
	const msgBase = 0x2000
	if i == 0 {
		return func(g SMPAPI) {
			for r := 0; r < p.Rounds; r++ {
				g.RAMWrite64(msgBase, uint64(r)+1)
				for t := 1; t < n; t++ {
					g.SendIPI(t, r%8)
				}
				g.Work(p.OpWork)
				g.Yield()
			}
		}
	}
	return func(g SMPAPI) {
		for r := 0; r < p.Rounds; r++ {
			g.Work(p.OpWork)
			g.Yield()
		}
		// Consume the last published message through shared RAM.
		g.RAMRead64(msgBase)
	}
}

// storm is the interrupt-storm pattern: each round, every vCPU arms its
// virtual timer, works past the deadline (taking the timer interrupt
// mid-round), rings its device doorbell (taking the completion
// interrupt), and kicks its ring successor — the event mix of a loaded
// production core, where timer ticks, device completions, and scheduler
// IPIs interleave at comparable rates. All three interrupt sources are
// serviced on the issuing core's own trap path; only the ring IPI
// crosses vCPUs.
func storm(p SMPProfile, n, i int) func(g SMPAPI) {
	return func(g SMPAPI) {
		for r := 0; r < p.Rounds; r++ {
			g.ArmTimer(p.OpWork / 2)
			g.Work(p.OpWork)
			g.DeviceKick()
			g.Work(p.OpWork)
			if n > 1 {
				g.SendIPI((i+1)%n, r%8)
			}
			g.Yield()
		}
	}
}

// stormBurst layers broadcast bursts over the storm mix: each round one
// rotating vCPU IPI-broadcasts to every sibling (n-1 distributor
// transactions in one epoch) while the rest run the timer+device local
// storm and answer with a ring kick — contention spikes riding on a
// steady interrupt load.
func stormBurst(p SMPProfile, n, i int) func(g SMPAPI) {
	return func(g SMPAPI) {
		for r := 0; r < p.Rounds; r++ {
			g.ArmTimer(p.OpWork / 2)
			g.Work(p.OpWork)
			g.DeviceKick()
			g.Work(p.OpWork)
			if n > 1 {
				if i == r%n {
					for t := 0; t < n; t++ {
						if t != i {
							g.SendIPI(t, r%8)
						}
					}
				} else {
					g.SendIPI((i+1)%n, r%8)
				}
			}
			g.Yield()
		}
	}
}

// SMPProfiles returns the multi-vCPU workloads of the scale-out sweep.
func SMPProfiles() []SMPProfile {
	return []SMPProfile{
		{
			Name:        "ipi-ring",
			Description: "IPI storm: every vCPU kicks its ring successor each round",
			Rounds:      20, OpWork: 8_000,
			pattern: ipiRing,
		},
		{
			Name:        "fanout",
			Description: "Broadcast: vCPU 0 publishes to shared RAM and kicks all workers",
			Rounds:      12, OpWork: 10_000,
			pattern: fanOut,
		},
		{
			Name:        "storm",
			Description: "Interrupt storm: timer tick + device completion + ring IPI per round",
			Rounds:      24, OpWork: 3_000,
			pattern: storm,
		},
		{
			Name:        "storm-burst",
			Description: "Interrupt storm with rotating IPI broadcast bursts",
			Rounds:      16, OpWork: 2_500,
			pattern: stormBurst,
		},
	}
}

// SMPProfileByName returns the named SMP profile.
func SMPProfileByName(name string) (SMPProfile, bool) {
	for _, p := range SMPProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return SMPProfile{}, false
}
