// Package machine assembles simulated ARM server hardware: cores, physical
// memory, the GIC distributor, per-core generic timers and virtual CPU
// interfaces, a Stage-2 MMU, and a physical device bus — the substrate the
// hypervisor model in package kvm runs on, standing in for the paper's HP
// Moonshot m400 nodes.
package machine

import (
	"bytes"
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/gic"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/mmu"
	"github.com/nevesim/neve/internal/timer"
	"github.com/nevesim/neve/internal/trace"
)

// Device is a memory-mapped peripheral on the physical bus.
type Device interface {
	Access(c *arm.CPU, pa mem.Addr, write bool, size int, val *uint64) bool
}

// Bus dispatches physical accesses to devices; it implements arm.PhysBus.
type Bus struct {
	devs []Device
}

// Add attaches a device.
func (b *Bus) Add(d Device) { b.devs = append(b.devs, d) }

// Access implements arm.PhysBus.
func (b *Bus) Access(c *arm.CPU, pa mem.Addr, write bool, size int, val *uint64) bool {
	for _, d := range b.devs {
		if d.Access(c, pa, write, size, val) {
			return true
		}
	}
	return false
}

// UARTBase is the console device window.
const UARTBase mem.Addr = 0x0900_0000

// UART is a write-only console device, used by examples.
type UART struct {
	buf bytes.Buffer

	// Tap, when non-nil, observes writes; the trace-JIT layer arms it
	// while recording, since the output buffer is outside the replay
	// guard. Reads are pure and stay recordable.
	Tap func()
}

// Access implements Device.
func (u *UART) Access(c *arm.CPU, pa mem.Addr, write bool, size int, val *uint64) bool {
	if pa < UARTBase || pa >= UARTBase+mem.PageSize {
		return false
	}
	if write {
		if u.Tap != nil {
			u.Tap()
		}
		u.buf.WriteByte(byte(*val))
	} else {
		*val = 0
	}
	return true
}

// Output returns everything written to the console.
func (u *UART) Output() string { return u.buf.String() }

// Config describes the hardware to build.
type Config struct {
	// CPUs is the core count (the paper's m400 has 8).
	CPUs int
	// MemBytes bounds installed RAM; 0 means unbounded.
	MemBytes uint64
	// Feat selects the architecture revision.
	Feat arm.Features
	// RecordTrace retains individual trap events (cmd/nevetrace).
	RecordTrace bool
	// NV2 overrides the NEVE engine configuration (ablations); nil with
	// Feat.NV2 set means full NEVE.
	NV2 *core.Engine
}

// Machine is the assembled hardware.
type Machine struct {
	Mem    *mem.Memory
	CPUs   []*arm.CPU
	Dist   *gic.Dist
	Timers []*timer.Timer
	S2     *mmu.Stage2
	Bus    *Bus
	UART   *UART
	Trace  *trace.Collector

	// nv2Pages maps a deferred access page base address (machine-physical,
	// as programmed into VNCR_EL2) to the tracked register store the
	// hypervisor registered for it. Every CPU's NV2Pages hook resolves
	// through it, so a page registered once is visible machine-wide.
	nv2Pages map[mem.Addr]arm.RegStore
}

// RegisterNV2Page registers st as the tracked backing store of the deferred
// access page at base. The hypervisor calls it when it allocates a page;
// deferred accesses to an unregistered base fall back to raw memory. A
// base keeps its store for the machine's lifetime (each core remembers the
// store it last resolved), so registering a base again with a different
// store panics.
func (m *Machine) RegisterNV2Page(base mem.Addr, st arm.RegStore) {
	if m.nv2Pages == nil {
		m.nv2Pages = make(map[mem.Addr]arm.RegStore)
	}
	if old, ok := m.nv2Pages[base]; ok && old != st {
		panic(fmt.Sprintf("machine: deferred access page %#x registered again with a different store", uint64(base)))
	}
	m.nv2Pages[base] = st
}

func (m *Machine) nv2PageAt(base mem.Addr) arm.RegStore { return m.nv2Pages[base] }

// New builds and wires a machine.
func New(cfg Config) *Machine {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	m := &Machine{
		Mem:   mem.New(mem.Addr(cfg.MemBytes)),
		Bus:   &Bus{},
		UART:  &UART{},
		Trace: trace.NewCollector(cfg.RecordTrace),
	}
	m.S2 = mmu.NewStage2(m.Mem)
	m.Dist = gic.NewDist()
	m.Bus.Add(m.Dist)
	m.Bus.Add(gic.HostIfc{})
	m.Bus.Add(m.UART)
	for i := 0; i < cfg.CPUs; i++ {
		c := arm.NewCPU(i, m.Mem, cfg.Feat)
		c.Trace = m.Trace
		c.Bus = m.Bus
		c.S2 = m.S2
		c.NV2Pages = m.nv2PageAt
		if cfg.Feat.NV2 {
			// The CPU implements NEVE (ARMv8.4 FEAT_NV2).
			engine := core.Engine{}
			if cfg.NV2 != nil {
				engine = *cfg.NV2
			}
			c.NV2 = engine
		}
		tm := timer.New(m.Dist)
		c.AddDevice(tm)
		c.AddDevice(&gic.VCPUIfc{Dist: m.Dist})
		m.CPUs = append(m.CPUs, c)
		m.Timers = append(m.Timers, tm)
		m.Dist.AddTarget(c)
	}
	m.Dist.EnableAll()
	return m
}

// Sync evaluates time-driven devices (timers) on every core. Benchmarks
// call it at deterministic points between core steps.
func (m *Machine) Sync() {
	for i, c := range m.CPUs {
		m.Timers[i].Check(c)
	}
}

// TotalCycles returns the maximum cycle count across cores, the machine's
// notion of elapsed time.
func (m *Machine) TotalCycles() uint64 {
	var max uint64
	for _, c := range m.CPUs {
		if c.Cycles() > max {
			max = c.Cycles()
		}
	}
	return max
}
