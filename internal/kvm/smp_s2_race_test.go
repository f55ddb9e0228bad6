package kvm

import (
	"testing"

	"github.com/nevesim/neve/internal/arm"
)

// TestSMPParallelBuildsStage2Once: a fresh nested stack leaves its VM's
// Stage-2 tables to a lazy build at first entry. The SMP engine must build
// them before any parallel epoch starts; otherwise two vCPUs of the VM
// race to build them (each allocating a root and bumping nextVMID), which
// the race detector reports on the very first storm round.
func TestSMPParallelBuildsStage2Once(t *testing.T) {
	f := arm.FeaturesV84()
	mk := func() *Stack {
		s := NewNestedStack(StackOptions{CPUs: 8, Feat: &f, GuestNEVE: true})
		s.InstallJIT(0)
		return s
	}
	s := mk()
	if s.VM.s2 != nil {
		t.Fatal("precondition: the VM's Stage-2 tables are built at boot; the lazy path is untested")
	}
	par := runSMPStorm(s, 8, 4, SMPOptions{Parallel: true, Adaptive: true})
	if !par.stats.Parallel {
		t.Fatal("storm fell back to sequential execution")
	}
	if got, want := s.Host.nextVMID, uint16(len(s.Host.VMs)); got != want {
		t.Fatalf("host assigned %d VMIDs for %d VMs", got, want)
	}
	par.mustMatch(t, runSMPStorm(mk(), 8, 4, SMPOptions{Adaptive: true}), "parallel vs sequential")
}
