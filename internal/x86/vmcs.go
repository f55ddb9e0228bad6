// Package x86 models Intel VT-x as far as the paper's comparison requires
// (Sections 2, 5, 7): root vs non-root mode orthogonal to privilege levels,
// the VM Control Structure (VMCS) in ordinary memory with hardware-managed
// bulk save/restore on transitions, VMCS shadowing (the Intel optimization
// the paper contrasts with NEVE), and a Turtles-style nested KVM x86.
//
// The architectural contrast with ARM drives the paper's analysis: x86
// coalesces accesses to VM register state in a single hardware operation on
// mode transitions, so a guest hypervisor performs few trapping
// instructions; ARM leaves state switching to software, whose many register
// accesses trap individually (Section 8).
package x86

import (
	"fmt"

	"github.com/nevesim/neve/internal/mem"
)

// Field identifies a VMCS field. The set is the subset KVM touches on every
// exit-handling round trip.
type Field uint16

const (
	FieldInvalid Field = iota

	// Guest state (saved/restored by hardware on transitions).
	GuestRIP
	GuestRSP
	GuestRFLAGS
	GuestCR0
	GuestCR3
	GuestCR4
	GuestES
	GuestCS
	GuestSS
	GuestDS
	GuestFS
	GuestGS
	GuestTR
	GuestGDTR
	GuestIDTR
	GuestIA32EFER
	GuestIA32PAT
	GuestSysenterESP
	GuestSysenterEIP
	GuestActivityState
	GuestInterruptibility

	// Host state (loaded by hardware on VM exit).
	HostRIP
	HostRSP
	HostCR0
	HostCR3
	HostCR4
	HostIA32EFER

	// Control fields.
	PinBasedControls
	CPUBasedControls
	SecondaryControls
	ExceptionBitmap
	IOBitmapA
	IOBitmapB
	MSRBitmap
	TSCOffset
	EPTPointer
	VPID
	VMEntryControls
	VMExitControls
	VMEntryIntrInfo
	TPRThreshold
	VirtualAPICPage
	PostedIntrVector

	// Read-only exit information.
	ExitReason
	ExitQualification
	GuestPhysicalAddress
	VMInstructionError
	ExitIntrInfo
	IdtVectoringInfo

	numFields
)

// NumFields is the number of modeled VMCS fields.
const NumFields = int(numFields)

var fieldNames = map[Field]string{
	GuestRIP: "GUEST_RIP", GuestRSP: "GUEST_RSP", GuestRFLAGS: "GUEST_RFLAGS",
	GuestCR0: "GUEST_CR0", GuestCR3: "GUEST_CR3", GuestCR4: "GUEST_CR4",
	GuestES: "GUEST_ES", GuestCS: "GUEST_CS", GuestSS: "GUEST_SS",
	GuestDS: "GUEST_DS", GuestFS: "GUEST_FS", GuestGS: "GUEST_GS",
	GuestTR: "GUEST_TR", GuestGDTR: "GUEST_GDTR", GuestIDTR: "GUEST_IDTR",
	GuestIA32EFER: "GUEST_IA32_EFER", GuestIA32PAT: "GUEST_IA32_PAT",
	GuestSysenterESP: "GUEST_SYSENTER_ESP", GuestSysenterEIP: "GUEST_SYSENTER_EIP",
	GuestActivityState: "GUEST_ACTIVITY_STATE", GuestInterruptibility: "GUEST_INTERRUPTIBILITY",
	HostRIP: "HOST_RIP", HostRSP: "HOST_RSP", HostCR0: "HOST_CR0",
	HostCR3: "HOST_CR3", HostCR4: "HOST_CR4", HostIA32EFER: "HOST_IA32_EFER",
	PinBasedControls: "PIN_BASED_CONTROLS", CPUBasedControls: "CPU_BASED_CONTROLS",
	SecondaryControls: "SECONDARY_CONTROLS", ExceptionBitmap: "EXCEPTION_BITMAP",
	IOBitmapA: "IO_BITMAP_A", IOBitmapB: "IO_BITMAP_B", MSRBitmap: "MSR_BITMAP",
	TSCOffset: "TSC_OFFSET", EPTPointer: "EPT_POINTER", VPID: "VPID",
	VMEntryControls: "VM_ENTRY_CONTROLS", VMExitControls: "VM_EXIT_CONTROLS",
	VMEntryIntrInfo: "VM_ENTRY_INTR_INFO", TPRThreshold: "TPR_THRESHOLD",
	VirtualAPICPage: "VIRTUAL_APIC_PAGE", PostedIntrVector: "POSTED_INTR_VECTOR",
	ExitReason: "EXIT_REASON", ExitQualification: "EXIT_QUALIFICATION",
	GuestPhysicalAddress: "GUEST_PHYSICAL_ADDRESS", VMInstructionError: "VM_INSTRUCTION_ERROR",
	ExitIntrInfo: "EXIT_INTR_INFO", IdtVectoringInfo: "IDT_VECTORING_INFO",
}

func (f Field) String() string {
	if s, ok := fieldNames[f]; ok {
		return s
	}
	return fmt.Sprintf("vmcs(%d)", uint16(f))
}

// guestStateFields are the fields hardware saves and restores automatically
// on every transition — the single bulk operation that mitigates exit
// multiplication on x86 (Section 8).
var guestStateFields = []Field{
	GuestRIP, GuestRSP, GuestRFLAGS, GuestCR0, GuestCR3, GuestCR4,
	GuestES, GuestCS, GuestSS, GuestDS, GuestFS, GuestGS, GuestTR,
	GuestGDTR, GuestIDTR, GuestIA32EFER, GuestIA32PAT,
	GuestSysenterESP, GuestSysenterEIP, GuestActivityState,
	GuestInterruptibility,
}

// The guest-state fields are the contiguous slot run
// guestStateFirst..guestStateLast, which the model moves with one
// VMCS.CopyRun per transition.
const (
	guestStateFirst = GuestRIP
	guestStateLast  = GuestInterruptibility
)

// VMCS is one VM control structure, resident in simulated physical memory.
type VMCS struct {
	Base mem.Addr
}

// NewVMCS allocates a VMCS region.
func NewVMCS(m *mem.Memory) VMCS { return VMCS{Base: m.AllocPage()} }

// Slot is the address of one field.
func (v VMCS) Slot(f Field) mem.Addr { return v.Base + mem.Addr(uint16(f))*8 }

// Read reads a field directly (hardware/internal use, no cycle charge).
func (v VMCS) Read(m *mem.Memory, f Field) uint64 { return m.MustRead64(v.Slot(f)) }

// Write writes a field directly.
func (v VMCS) Write(m *mem.Memory, f Field, val uint64) { m.MustWrite64(v.Slot(f), val) }

// CopyRun copies the fields first..last of src into v in one transfer
// (hardware/internal use, no cycle charge): the same result as a Write of
// each field's Read, as hardware's bulk VMCS save/restore moves them.
func (v VMCS) CopyRun(m *mem.Memory, src VMCS, first, last Field) {
	m.MustCopy(v.Slot(first), src.Slot(first), int(last-first+1)*8)
}

// DefaultShadowBitmap is the set of fields a shadow VMCS covers: guest
// hypervisor vmread/vmwrite of these proceed without exiting when VMCS
// shadowing is enabled (Intel's optimization, Section 8). A few fields —
// the ones KVM must always intercept — remain unshadowed, which is why even
// with shadowing a handful of exits per nested operation remain (Table 7).
// The bitmap is built once and shared by every CPU: do not modify it.
func DefaultShadowBitmap() *[NumFields]bool { return &defaultShadowBitmap }

var defaultShadowBitmap = func() (shadowed [NumFields]bool) {
	for f := FieldInvalid + 1; f < numFields; f++ {
		// All but the always-intercepted fields.
		shadowed[f] = f != EPTPointer && f != VMEntryIntrInfo && f != PostedIntrVector
	}
	return shadowed
}()
