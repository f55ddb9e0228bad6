// Package workload models the application benchmarks of the paper's
// evaluation (Table 8, Figure 2) as event mixes over a small guest API that
// both the ARM and x86 stacks implement: bursts of guest CPU work
// interleaved with hypercalls, paravirtual device I/O, device interrupts,
// and scheduler IPIs.
//
// Two dynamics the paper analyzes are modeled explicitly:
//
//   - virtio notification suppression (Section 7.2): the frontend only
//     kicks the backend when the backend is idle, so the number of device
//     notifications is endogenous — a faster hypervisor handles kicks
//     sooner, re-enables notifications sooner, and therefore receives MORE
//     kicks ("having faster hardware can result in more virtualization
//     overhead", the x86 Memcached anomaly);
//
//   - wakeup IPIs: a vCPU sends a wakeup only if the producer-consumer
//     pipeline actually stalled, so slow exit handling (ARMv8.3) triggers
//     wakeups that fast handling (NEVE, x86) avoids.
package workload

// API is the guest-side execution interface. kvm.GuestCtx (ARM) and
// x86.GuestCtx implement it; Native is the bare-metal baseline.
type API interface {
	// Work burns n guest instructions (a preemption point).
	Work(n uint64)
	// Hypercall issues a null hypercall.
	Hypercall()
	// DeviceRead accesses the paravirtual device (the notification path).
	DeviceRead(off uint64) uint64
	// SendIPI sends an inter-processor interrupt to another vCPU.
	SendIPI(target, intid int)
}

// Clock exposes the vCPU cycle counter; both GuestCtx types implement it.
type Clock interface {
	Cycles() uint64
}

// Platform is the harness-side interface: operations a workload needs the
// surrounding machine to perform (it cannot trigger them from inside the
// guest).
type Platform interface {
	// InjectDeviceIRQ raises a device interrupt (NIC RX) routed to the
	// measured vCPU; it is delivered at the next preemption point.
	InjectDeviceIRQ()
	// ServicePeer lets the peer core (vCPU 1) absorb pending cross-core
	// interrupts, modeling its concurrent execution.
	ServicePeer()
	// HasPeer reports whether a second vCPU exists for IPIs.
	HasPeer() bool
}

// Profile parameterizes one application benchmark (Table 8).
type Profile struct {
	Name string
	// Description matches Table 8's workload summary.
	Description string
	// Ops is the number of operations a run executes.
	Ops int
	// OpWork is guest CPU work per operation, in instructions.
	OpWork uint64
	// HypercallsPerOp is the rate of null-hypercall-class events.
	HypercallsPerOp float64
	// RXPerOp is the rate of device interrupts received (network RX or
	// completion interrupts); the dominant cost for network loads under
	// ARMv8.3 (Section 7.2).
	RXPerOp float64
	// RXCoalesce is the per-packet polling cost of the NAPI-style receive
	// path: after an interrupt, further packets are polled without
	// interrupts while the receive path is busy. 0 disables coalescing.
	RXCoalesce uint64
	// TXPerOp is the rate of transmit notifications the guest would send
	// if the backend were always idle; notification suppression reduces
	// the actual kicks.
	TXPerOp float64
	// BackendWork is the backend's per-kick processing time (cycles): the
	// notification-suppression busy window. 0 disables suppression.
	BackendWork uint64
	// IPIPerOp is the rate of scheduler/wakeup IPI opportunities.
	IPIPerOp float64
	// WakeThreshold: a wakeup IPI is sent only if the last device event's
	// round trip exceeded this many cycles (the pipeline stalled). 0
	// means IPIs are unconditional (true synchronization IPIs, as in
	// hackbench).
	WakeThreshold uint64
}

// Scaled returns the profile adjusted for hardware that is f times faster:
// per-operation CPU work and backend processing shrink, while the external
// event rates stay fixed (the network does not speed up with the server).
// The paper uses this to explain the x86 Memcached anomaly: the faster x86
// server takes more exits per unit of work (Section 7.2).
func (p Profile) Scaled(f uint64) Profile {
	if f == 0 {
		f = 1
	}
	p.OpWork /= f
	p.BackendWork /= f
	p.RXCoalesce /= f
	p.WakeThreshold /= f
	return p
}

// Result is one workload run's measurement.
type Result struct {
	Profile string
	// Cycles is the guest-observed execution time.
	Cycles uint64
	// Kicks/RXIRQs/IPIs/Hypercalls are the event counts that actually
	// happened (kicks and IPIs are endogenous).
	Kicks      uint64
	RXIRQs     uint64
	IPIs       uint64
	Hypercalls uint64
}

// Run executes the profile on g, measuring with clk.
func (p *Profile) Run(g API, clk Clock, plat Platform) Result {
	res := Result{Profile: p.Name}

	var accHC, accRX, accTX, accIPI float64
	var busyUntil, rxBusyUntil uint64
	var lastEventCost uint64

	start := clk.Cycles()
	for op := 0; op < p.Ops; op++ {
		g.Work(p.OpWork)

		accHC += p.HypercallsPerOp
		for accHC >= 1 {
			accHC--
			g.Hypercall()
			res.Hypercalls++
		}

		accRX += p.RXPerOp
		for accRX >= 1 {
			accRX--
			now := clk.Cycles()
			if now < rxBusyUntil {
				// NAPI polling: the receive path is still busy, the packet
				// is consumed without an interrupt.
				continue
			}
			before := now
			plat.InjectDeviceIRQ()
			g.Work(200) // reach the next preemption point; delivery happens
			after := clk.Cycles()
			lastEventCost = after - before
			queued := uint64(1)
			if p.OpWork > 0 {
				queued += lastEventCost / (p.OpWork + 1)
			}
			rxBusyUntil = after + p.RXCoalesce*queued
			res.RXIRQs++
		}

		accTX += p.TXPerOp
		for accTX >= 1 {
			accTX--
			now := clk.Cycles()
			if now < busyUntil {
				// Backend busy: notification suppressed, the packet is
				// queued and processed within the current busy window.
				continue
			}
			before := now
			g.DeviceRead(0) // the kick
			after := clk.Cycles()
			lastEventCost = after - before
			// The backend drains everything that queued while the kick
			// was being handled, then re-enables notifications.
			queued := uint64(1)
			if p.OpWork > 0 {
				queued += lastEventCost / (p.OpWork + 1)
			}
			busyUntil = after + p.BackendWork*queued
			res.Kicks++
		}

		accIPI += p.IPIPerOp
		for accIPI >= 1 {
			accIPI--
			if !plat.HasPeer() {
				continue
			}
			if p.WakeThreshold != 0 && lastEventCost <= p.WakeThreshold {
				// The consumer never went idle: no wakeup needed.
				continue
			}
			g.SendIPI(1, 3)
			plat.ServicePeer()
			res.IPIs++
		}
	}
	res.Cycles = clk.Cycles() - start
	return res
}

// Native is the bare-metal baseline implementation of API and Clock: events
// cost their native (non-virtualized) handling time.
type Native struct {
	cycles uint64
}

// Native per-event costs (cycles): a syscall-class trap, a device register
// access, an interrupt round trip, a physical IPI round trip.
const (
	nativeHypercall = 260
	nativeDeviceIO  = 180
	nativeIRQ       = 600
	nativeIPI       = 1400
)

// Work implements API.
func (n *Native) Work(c uint64) { n.cycles += c }

// Hypercall implements API (a native syscall-class operation).
func (n *Native) Hypercall() { n.cycles += nativeHypercall }

// DeviceRead implements API (a native device register access).
func (n *Native) DeviceRead(off uint64) uint64 {
	n.cycles += nativeDeviceIO
	return 1
}

// SendIPI implements API.
func (n *Native) SendIPI(target, intid int) { n.cycles += nativeIPI }

// Cycles implements Clock.
func (n *Native) Cycles() uint64 { return n.cycles }

// InjectDeviceIRQ implements Platform for the native baseline.
func (n *Native) InjectDeviceIRQ() { n.cycles += nativeIRQ }

// ServicePeer implements Platform.
func (n *Native) ServicePeer() {}

// HasPeer implements Platform.
func (n *Native) HasPeer() bool { return true }
