package platform

import (
	"fmt"

	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/wire"
	"github.com/nevesim/neve/internal/x86"
)

// Checkpoint payload layout: a one-byte architecture tag followed by the
// stack's walk. The tag is a safety net inside an already-keyed store —
// entries are addressed by the spec's axes, so an arch mismatch can only
// mean key corruption, and it should fail loudly rather than feed ARM
// bytes to the x86 decoder.
const (
	tagARM = 'A'
	tagX86 = 'X'
)

// EncodeCheckpoint renders a checkpoint taken from p into its durable
// binary form. It fails (without writing anything useful) when the
// checkpoint carries state the codec cannot express — notably a guest
// IRQ handler, which marks a mid-workload capture rather than a boot
// checkpoint.
func EncodeCheckpoint(p Platform, cp *Checkpoint) ([]byte, error) {
	c := wire.NewEncoder()
	if err := cp.wire(c, p); err != nil {
		return nil, err
	}
	return c.Payload(), nil
}

// DecodeCheckpoint reads a payload written by EncodeCheckpoint,
// materializing the checkpoint against the live platform p (which must
// have been built from the same spec — the store's content addressing
// guarantees this). The returned checkpoint is interchangeable with one
// from p.Snapshot(); any mismatch or corruption returns an error and the
// platform's state is left untouched.
func DecodeCheckpoint(p Platform, b []byte) (*Checkpoint, error) {
	c := wire.NewDecoder(b)
	cp := &Checkpoint{}
	if err := cp.wire(c, p); err != nil {
		return nil, err
	}
	if n := c.Remaining(); n != 0 {
		return nil, fmt.Errorf("platform: %d trailing bytes after checkpoint", n)
	}
	return cp, nil
}

// wire walks the arch tag and then the stack checkpoint against p's
// stack.
func (cp *Checkpoint) wire(c *wire.Codec, p Platform) error {
	var tag uint8
	switch {
	case cp.arm != nil:
		tag = tagARM
	case cp.x86 != nil:
		tag = tagX86
	}
	wire.U8(c, &tag)
	switch {
	case tag == tagARM && p.ARM() != nil:
		if c.Decoding() {
			cp.arm = new(kvm.StackCheckpoint)
		}
		cp.arm.Wire(c, p.ARM())
	case tag == tagX86 && p.X86() != nil:
		if c.Decoding() {
			cp.x86 = new(x86.StackCheckpoint)
		}
		cp.x86.Wire(c, p.X86())
	case tag == tagARM || tag == tagX86:
		return fmt.Errorf("platform: %c checkpoint does not fit the %s platform", tag, p.Spec().Arch)
	case c.Decoding():
		return fmt.Errorf("platform: unknown checkpoint arch tag %#x", tag)
	default:
		return fmt.Errorf("platform: empty checkpoint")
	}
	return c.Err()
}
