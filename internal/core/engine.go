package core

import "github.com/nevesim/neve/internal/arm"

// Engine is the NEVE hardware logic: it is consulted by the CPU model for
// every virtual-EL2 system register access that ARMv8.3 would trap, and
// either performs the access (rewritten to the deferred access page or
// redirected to an EL1 register) or declines, letting the trap proceed.
//
// All run-time configuration lives in the hardware VNCR_EL2 register of
// the CPU being accessed, exactly as in the proposed architecture. The
// Disable* fields selectively turn off NEVE's three mechanisms
// (Section 6: deferral to memory, register redirection, cached copies)
// for the ablation experiments; a zero Engine is full NEVE.
type Engine struct {
	// DisableDefer turns off the rewriting of VM system register accesses
	// to the deferred access page (Table 3).
	DisableDefer bool
	// DisableRedirect turns off EL2-to-EL1 register redirection (Table 4).
	DisableRedirect bool
	// DisableCached turns off cached-copy reads of trap-on-write
	// registers (Tables 4 and 5).
	DisableCached bool
}

var _ arm.NV2Engine = Engine{}

// Access implements arm.NV2Engine. VNCR_EL2 is read once and the
// register's rule is taken by pointer; both travel down to the access.
func (e Engine) Access(c *arm.CPU, r arm.SysReg, write bool, val *uint64) arm.NV2Outcome {
	vncr := c.Reg(arm.VNCR_EL2)
	if !Enabled(vncr) {
		return arm.NV2Trap
	}
	rule := &resolved[r]
	switch rule.Treatment {
	case TreatVNCR:
		if e.DisableDefer {
			return arm.NV2Trap
		}
		return pageAccess(c, vncr, rule.Reg, write, val)
	case TreatRedirect:
		if e.DisableRedirect {
			return arm.NV2Trap
		}
		return redirectAccess(c, rule.Redirect, write, val)
	case TreatTrapOnWrite:
		if write || e.DisableCached {
			return arm.NV2Trap
		}
		return pageAccess(c, vncr, rule.Reg, false, val)
	case TreatRedirectOrTrap:
		// TCR_EL2 and TTBR0_EL2 share the EL1 format only under VHE
		// (Table 4). The guest hypervisor's virtual HCR_EL2 is itself
		// stored in the deferred access page, so the hardware can read its
		// E2H bit there to pick the behavior.
		vhcr := peekVHCR(c, vncr)
		if vhcr&arm.HCRE2H != 0 {
			if e.DisableRedirect {
				return arm.NV2Trap
			}
			return redirectAccess(c, rule.Redirect, write, val)
		}
		if write || e.DisableCached {
			return arm.NV2Trap
		}
		return pageAccess(c, vncr, rule.Reg, false, val)
	default:
		return arm.NV2Trap
	}
}

// peekVHCR reads the virtual HCR_EL2 slot of the active deferred access
// page: through the registered tracked store when the hypervisor installed
// one (the read reports to the trace-JIT tap like any other saved-context
// access), falling back to raw memory otherwise. The peek models the
// hardware's internal slot fetch and carries no extra cycle charge — the
// access it steers pays the usual cost.
func peekVHCR(c *arm.CPU, vncr uint64) uint64 {
	base := BAddr(vncr)
	if st := c.NV2Store(base); st != nil {
		return st.Get(arm.HCR_EL2)
	}
	return c.Mem.MustRead64(Page{Base: base}.Slot(arm.HCR_EL2))
}

// pageAccess performs a deferred access to reg's slot of the page vncr
// names.
func pageAccess(c *arm.CPU, vncr uint64, reg arm.SysReg, write bool, val *uint64) arm.NV2Outcome {
	base := BAddr(vncr)
	if st := c.NV2Store(base); st != nil {
		// The page is backed by a registered tracked store: the access
		// reports its read/write set to the trace-JIT engine through the
		// store's tap, so deferred traffic is replayable instead of a
		// poison source.
		if write {
			st.Set(reg, *val)
		} else {
			*val = st.Get(reg)
		}
		c.AddCycles(c.Cost.SysRegVNCR)
		return arm.NV2Memory
	}
	// An unregistered page lives only in raw memory, which is outside the
	// trace-JIT replay guard: poison any active recording.
	c.JITPoison()
	addr := Page{Base: base}.Slot(reg)
	if write {
		c.Mem.MustWrite64(addr, *val)
	} else {
		*val = c.Mem.MustRead64(addr)
	}
	c.AddCycles(c.Cost.SysRegVNCR)
	return arm.NV2Memory
}

func redirectAccess(c *arm.CPU, to arm.SysReg, write bool, val *uint64) arm.NV2Outcome {
	if write {
		c.SetReg(to, *val)
	} else {
		*val = c.Reg(to)
	}
	c.AddCycles(c.Cost.SysRegRedirect)
	return arm.NV2Redirected
}
