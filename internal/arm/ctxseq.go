package arm

import (
	"fmt"

	"github.com/nevesim/neve/internal/jit"
)

// CtxSeq is a precomputed world-switch register sequence: a straight-line
// run of MRS or MSR instructions that a hypervisor executes to move system
// register state between the hardware and a saved context file. The
// sequences are the hottest register traffic in the simulation — KVM runs
// four of them (host save/restore, VM save/restore) on every exit — so the
// per-register metadata lookups are resolved once at construction.
//
// SaveSeq and LoadSeq are exactly equivalent to the per-register loops
//
//	for i, r := range regs { store[slots[i]] = c.MRS(r) }
//	for i, r := range regs { c.MSR(r, store[slots[i]]) }
//
// in trap routing, device dispatch, and cycle accounting: executed
// deprivileged, every access still goes through MRS/MSR and traps or is
// rewritten individually; executed natively at EL2, the batched fast path
// performs the same storage moves and the same per-access cycle charges
// without re-deriving the dispatch per register.
type CtxSeq struct {
	regs  []SysReg
	slots []SysReg
	// vheOnly marks a sequence containing ARMv8.1 encodings; accessed on a
	// CPU without FEAT_VHE it must fault like the individual instruction.
	vheOnly bool
}

// NewCtxSeq builds a sequence; element i accesses encoding regs[i] and
// moves the value to or from slot slots[i] of the saved file. Every
// register must be readable and writable (context state by definition).
func NewCtxSeq(regs, slots []SysReg) *CtxSeq {
	if len(regs) != len(slots) {
		panic(fmt.Sprintf("arm: CtxSeq regs/slots length mismatch (%d vs %d)", len(regs), len(slots)))
	}
	seq := &CtxSeq{regs: regs, slots: slots}
	for _, r := range regs {
		info := Info(r)
		if info.ReadOnly || info.WriteOnly {
			panic(fmt.Sprintf("arm: CtxSeq register %s is not read-write", r))
		}
		if info.VHEOnly {
			seq.vheOnly = true
		}
	}
	return seq
}

// seqRec resolves the active JIT recording's view of store: the engine
// tracks context files by read/write set instead of walking them, so the
// batched sequences must report each slot access exactly like the
// per-register Get/Set funnel would. A nil engine or idle recorder costs
// one branch; a store that is not a registered file poisons via the
// zero FileID inside the engine.
func (c *CPU) seqRec(store *[NumSysRegs]uint64) (*jit.Engine, jit.FileID) {
	if j := c.jit; j != nil && j.Recording() {
		return j, j.FileByBase(&store[0])
	}
	return nil, 0
}

// SaveSeq reads the sequence into store (store[slots[i]] = MRS(regs[i])).
func (c *CPU) SaveSeq(seq *CtxSeq, store *[NumSysRegs]uint64) {
	rec, fid := c.seqRec(store)
	if c.EL() != EL2 || (seq.vheOnly && !c.Feat.VHE) {
		for i, r := range seq.regs {
			v := c.MRS(r)
			if rec != nil {
				rec.FileWrite(fid, int(seq.slots[i]))
			}
			store[seq.slots[i]] = v
		}
		return
	}
	b := 0
	if c.hcrRead()&HCRE2H != 0 {
		b = 1
	}
	for i, r := range seq.regs {
		eff := effEL2[b][r]
		c.cycles += c.Cost.SysReg
		if c.devMask[eff] {
			if rec != nil {
				rec.FileWrite(fid, int(seq.slots[i]))
			}
			store[seq.slots[i]] = c.raw(eff, false, 0)
			continue
		}
		if rec != nil {
			rec.FileRead(c.regsFID, int(eff))
			rec.FileWrite(fid, int(seq.slots[i]))
		}
		store[seq.slots[i]] = c.regs[eff]
	}
}

// LoadSeq writes the sequence from store (MSR(regs[i], store[slots[i]])).
func (c *CPU) LoadSeq(seq *CtxSeq, store *[NumSysRegs]uint64) {
	rec, fid := c.seqRec(store)
	if c.EL() != EL2 || (seq.vheOnly && !c.Feat.VHE) {
		for i, r := range seq.regs {
			if rec != nil {
				rec.FileRead(fid, int(seq.slots[i]))
			}
			c.MSR(r, store[seq.slots[i]])
		}
		return
	}
	b := 0
	if c.hcrRead()&HCRE2H != 0 {
		b = 1
	}
	for i, r := range seq.regs {
		eff := effEL2[b][r]
		c.cycles += c.Cost.SysReg
		if rec != nil {
			rec.FileRead(fid, int(seq.slots[i]))
		}
		if c.devMask[eff] {
			c.raw(eff, true, store[seq.slots[i]])
			continue
		}
		if rec != nil {
			rec.FileWrite(c.regsFID, int(eff))
		}
		c.regs[eff] = store[seq.slots[i]]
	}
}
