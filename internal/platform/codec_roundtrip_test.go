package platform

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/x86"
)

// wiringFields are the checkpoint fields that are not data: live-stack
// plumbing that a decoder grafts from the stack it decodes against
// instead of reading from the payload. They are the only fields the
// round-trip test leaves as captured.
var wiringFields = map[string]bool{
	"arm.CPUCheckpoint.virq":         true, // VIRQ sink into the guest context
	"kvm.Context.jt":                 true, // trace-JIT FileTap
	"kvm.guestCheckpoint.irqHandler": true, // Go closure; must be nil to encode
	"x86.CPUCheckpoint.irq":          true, // IRQ sink
	"x86.CPUCheckpoint.shadowed":     true, // shadow bitmap, held by reference
	"x86.vcpuCheckpoint.irqHandler":  true, // Go closure; must be nil to encode
}

// filler overwrites every data field reachable from a checkpoint with
// distinct non-zero values: empty slices and maps grow two entries, nil
// pointers are allocated, so state that is zero at boot (TLB hits,
// pending forwards, the trace sparse map) is exercised too.
type filler struct {
	t *testing.T
	n uint64
	// refs supplies topology pointers, which travel as indices and must
	// name live objects: the hypervisor level being filled selects them.
	refs  map[reflect.Type]func(level int) reflect.Value
	level int
}

func (f *filler) next() uint64 { f.n++; return f.n }

func (f *filler) fill(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(f.next()))
	case reflect.Uint8:
		v.SetUint(f.next()%255 + 1)
	case reflect.Uint16:
		v.SetUint(f.next()%65535 + 1)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(f.next())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), path)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		}
		for i := 0; i < v.Len(); i++ {
			if path == "hyps" {
				f.level = i
			}
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(k, path+"{key}")
			f.fill(e, path+"{val}")
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		if ref, ok := f.refs[v.Type()]; ok {
			v.Set(ref(f.level))
			return
		}
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		f.fill(v.Elem(), path)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.String() + "." + t.Field(i).Name
			if wiringFields[name] {
				continue
			}
			fv := v.Field(i)
			fv = reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem()
			f.fill(fv, t.Field(i).Name)
			if name == "mem.snapPage.base" {
				fv.SetUint(fv.Uint() * mem.PageSize) // decoding rejects unaligned pages
			}
		}
	default:
		f.t.Fatalf("%s: %s field is neither walkable data nor listed in wiringFields", path, v.Type())
	}
}

// armRefs and x86Refs resolve topology pointers: a loaded vCPU is the
// last vCPU of the level's first VM, a forward's child the innermost
// hypervisor.
func armRefs(s *kvm.Stack) map[reflect.Type]func(int) reflect.Value {
	hyps := []*kvm.Hypervisor{s.Host}
	for _, h := range []*kvm.Hypervisor{s.GuestHyp, s.GuestHyp2} {
		if h != nil {
			hyps = append(hyps, h)
		}
	}
	return map[reflect.Type]func(int) reflect.Value{
		reflect.TypeOf(hyps[0]): func(int) reflect.Value { return reflect.ValueOf(hyps[len(hyps)-1]) },
		reflect.TypeOf((*kvm.VCPU)(nil)): func(level int) reflect.Value {
			vcpus := hyps[level].VMs[0].VCPUs
			return reflect.ValueOf(vcpus[len(vcpus)-1])
		},
	}
}

func x86Refs(s *x86.Stack) map[reflect.Type]func(int) reflect.Value {
	hyps := []*x86.Hypervisor{s.Host}
	if s.GuestHyp != nil {
		hyps = append(hyps, s.GuestHyp)
	}
	return map[reflect.Type]func(int) reflect.Value{
		reflect.TypeOf(hyps[0]): func(int) reflect.Value { return reflect.ValueOf(hyps[len(hyps)-1]) },
		reflect.TypeOf((*x86.VCPU)(nil)): func(level int) reflect.Value {
			vcpus := hyps[level].VMs[0].VCPUs
			return reflect.ValueOf(vcpus[len(vcpus)-1])
		},
	}
}

// TestCheckpointRoundTripEveryField is the codec's completeness property:
// with every data field of a checkpoint set to a distinct non-zero value,
// encode → decode (against the stack it was captured from, so wiring and
// topology pointers resolve to the same objects) must reproduce the
// checkpoint exactly. A field missing from its type's walk decodes as
// zero and fails the comparison; TestCheckpointCodecEquivalence cannot
// see such a field when it is zero at boot.
func TestCheckpointRoundTripEveryField(t *testing.T) {
	for _, name := range []string{"neve", "recursive-neve", "x86-nested"} {
		t.Run(name, func(t *testing.T) {
			spec := MustLookup(name)
			spec.CPUs = 2
			p := MustBuild(spec)
			cp := p.Snapshot()
			f := &filler{t: t}
			var stack reflect.Value
			if s := p.ARM(); s != nil {
				f.refs, stack = armRefs(s), reflect.ValueOf(cp.arm)
			} else {
				f.refs, stack = x86Refs(p.X86()), reflect.ValueOf(cp.x86)
			}
			f.fill(stack, "checkpoint")

			b, err := EncodeCheckpoint(p, cp)
			if err != nil {
				t.Fatalf("EncodeCheckpoint: %v", err)
			}
			got, err := DecodeCheckpoint(p, b)
			if err != nil {
				t.Fatalf("DecodeCheckpoint: %v", err)
			}
			if !reflect.DeepEqual(got, cp) {
				t.Fatal("decoded checkpoint differs from the encoded one: some field is missing from its walk")
			}
		})
	}
}
