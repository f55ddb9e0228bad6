package machine

import (
	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/timer"
	"github.com/nevesim/neve/internal/wire"
)

// Wire walks every data field of the checkpoint. Decoding fills cp
// against m: the CPU and timer counts must match m's topology, CPU
// checkpoints start from m's live cores so component wiring (VIRQ
// plumbing) stays intact, and memory pages materialize in m.Mem. The
// decoded checkpoint is then interchangeable with one produced by
// Machine.Checkpoint.
func (cp *Checkpoint) Wire(c *wire.Codec, m *Machine) {
	if c.Decoding() {
		*cp = Checkpoint{mem: new(mem.Snapshot), dist: new(gic.DistCheckpoint)}
	}
	cp.mem.Wire(c, m.Mem)
	wire.Topo(c, &cp.cpus, m.CPUs, "machine: CPUs", func(cp **arm.CPUCheckpoint, c *wire.Codec, cpu *arm.CPU) {
		if c.Decoding() {
			*cp = cpu.Checkpoint()
		}
		(*cp).Wire(c)
	})
	cp.dist.Wire(c)
	wire.Topo(c, &cp.timers, m.Timers, "machine: timers", func(t *timer.TimerCheckpoint, c *wire.Codec, _ *timer.Timer) {
		t.Wire(c)
	})
	cp.s2.Wire(c)
	wire.Blob(c, &cp.uart)
	cp.trace.Wire(c)
}
