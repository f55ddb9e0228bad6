package kvm

import (
	"fmt"
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/jit"
	"github.com/nevesim/neve/internal/machine"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/timer"
)

// seqEmu is a minimal EL2 vector for the sequence equivalence test: it
// emulates every trapped system register access against its own file and
// charges a little work, so trap routing, cycles and values all show.
type seqEmu struct{ file Context }

func (h *seqEmu) HandleTrap(c *arm.CPU, e *arm.Exception) uint64 {
	if e.EC != arm.ECSysReg {
		panic(fmt.Sprintf("seqEmu: unexpected trap %s", e.EC))
	}
	c.Work(7)
	if e.Write {
		h.file.Set(e.Reg, e.Val)
		return 0
	}
	return h.file.Get(e.Reg)
}

// seqRig is one machine running a sequence: its saved file, the deferred
// access page's tracked store and, when recording, the trace-JIT engine.
type seqRig struct {
	m     *machine.Machine
	c     *arm.CPU
	emu   *seqEmu
	store Context
	page  Context
	j     *jit.Engine
}

const seqPageBase mem.Addr = 0x4000_0000

func newSeqRig(record bool) *seqRig {
	m := machine.New(machine.Config{CPUs: 1, Feat: arm.FeaturesV84()})
	r := &seqRig{m: m, c: m.CPUs[0], emu: &seqEmu{}}
	r.c.Vector = r.emu
	m.RegisterNV2Page(seqPageBase, &r.page)
	// Distinct values everywhere, with bits 0-2 clear so that no timer
	// line is enabled, except one disabled line left with its status bit
	// set: a timer write that reaches the device clears it.
	for _, reg := range arm.AllRegs() {
		if arm.StorageReg(reg) == reg {
			r.c.SetReg(reg, uint64(reg)<<8)
			r.store.regs[reg] = uint64(reg)<<16 | 0x100
			r.emu.file.regs[reg] = uint64(reg)<<24 | 0x200
			r.page.regs[reg] = uint64(reg)<<32 | 0x300
		}
	}
	r.c.SetReg(arm.CNTV_CTL_EL0, timer.CtlIStat)
	r.c.SetReg(arm.VNCR_EL2, core.MakeVNCR(seqPageBase, true))
	if record {
		r.j = jit.New(jit.Hooks{
			NumCPUs:      1,
			ClockState:   func(int) jit.ClockState { return r.c.JITClockState() },
			AdvanceClock: func(*jit.ClockDelta) {},
			Gen:          func() uint64 { return 0 },
			Trace:        m.Trace,
			Arm:          func() {},
			Disarm:       func() {},
		})
		r.c.SetJIT(r.j)
		r.store.jt = r.j.Tap(r.j.RegisterFile(r.store.regs[:]))
		r.page.jt = r.j.Tap(r.j.RegisterFile(r.page.regs[:]))
	}
	return r
}

// run executes body at EL2 with HCR_EL2 = hcr, or at EL1 when el1 is set,
// and returns a digest of everything it may have changed. When the rig
// has an engine, body runs inside an active recording and the digest
// includes the recording's read and write sets.
func (r *seqRig) run(el1 bool, hcr uint64, body func(c *arm.CPU)) string {
	r.c.SetReg(arm.HCR_EL2, hcr)
	out := ""
	if r.j != nil {
		exc := [jit.ExcWords]uint64{0xc7}
		for {
			if _, st := r.j.Dispatch(0, &exc); st == jit.Record {
				break
			}
		}
		defer r.j.AbortRecord()
	}
	if el1 {
		r.c.RunGuest(1, func() { body(r.c) })
	} else {
		body(r.c)
	}
	if r.j != nil {
		reads, writes := r.j.Accessed()
		if len(reads) == 0 || len(writes) == 0 {
			panic("seqRig: the recording saw no tracked access")
		}
		out = fmt.Sprintf("reads=%v\nwrites=%v\n", reads, writes)
	}
	return out + fmt.Sprintf("traps=%d cpu=%v\nstore=%v\nemu=%v\npage=%v\n",
		r.m.Trace.Total(), *r.c.Checkpoint(), r.store.regs, r.emu.file.regs, r.page.regs)
}

// TestCtxSeqMatchesPerRegisterLoop pins arm.CtxSeq's documented
// equivalence for every sequence the hypervisor builds: SaveSeq and
// LoadSeq store the same values, charge the same cycles, take the same
// traps and, under an active recording, report the same tracked reads and
// writes as the per-register MRS/MSR loop through the saved file's
// Get/Set funnel. Natively at EL2 (E2H clear and set) and deprivileged at
// EL1 under NV, with and without NV1 and NV2.
func TestCtxSeqMatchesPerRegisterLoop(t *testing.T) {
	type seqCase struct {
		name        string
		seq         *arm.CtxSeq
		regs, slots []arm.SysReg
	}
	var vmRegs, vmSlots, vheRegs []arm.SysReg
	for _, r := range el1CtxRegs {
		vmRegs, vmSlots, vheRegs = append(vmRegs, r), append(vmSlots, r), append(vheRegs, el12For(r))
	}
	vmRegs = append(vmRegs, el0CtxRegs...)
	vheRegs = append(vheRegs, el0CtxRegs...)
	vmSlots = append(vmSlots, el0CtxRegs...)
	seqs := []seqCase{
		{"host", hostCtxSeq, el1CtxRegs, el1CtxRegs},
		{"vm", vmCtxSeqNonVHE, vmRegs, vmSlots},
		{"vm-vhe", vmCtxSeqVHE, vheRegs, vmSlots},
	}
	modes := []struct {
		name string
		el1  bool
		hcr  uint64
	}{
		{"el2", false, 0},
		{"el2-e2h", false, arm.HCRE2H},
		{"el1-nv", true, arm.HCRNV},
		{"el1-nv-nv1", true, arm.HCRNV | arm.HCRNV1},
		{"el1-nv-nv2", true, arm.HCRNV | arm.HCRNV2},
		{"el1-nv-nv1-nv2", true, arm.HCRNV | arm.HCRNV1 | arm.HCRNV2},
	}
	for _, sc := range seqs {
		for _, md := range modes {
			for _, record := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/record=%v", sc.name, md.name, record)
				t.Run(name, func(t *testing.T) {
					batched, loop := newSeqRig(record), newSeqRig(record)
					got := batched.run(md.el1, md.hcr, func(c *arm.CPU) {
						c.SaveSeq(sc.seq, batched.store.file())
						c.LoadSeq(sc.seq, batched.store.file())
					})
					want := loop.run(md.el1, md.hcr, func(c *arm.CPU) {
						for i, r := range sc.regs {
							loop.store.Set(sc.slots[i], c.MRS(r))
						}
						for i, r := range sc.regs {
							c.MSR(r, loop.store.Get(sc.slots[i]))
						}
					})
					if got != want {
						t.Fatalf("batched sequence differs from the per-register loop:\nbatched:\n%s\nloop:\n%s", got, want)
					}
					if md.el1 && batched.m.Trace.Total() == 0 && md.hcr&arm.HCRNV2 == 0 {
						t.Fatal("deprivileged sequence took no trap: the case exercises nothing")
					}
				})
			}
		}
	}
}
