package kvm

import (
	"fmt"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/mem"
	"github.com/nevesim/neve/internal/virtio"
)

// The virtio-mmio device (paper Section 4: all VM I/O is paravirtualized
// virtio). The device window splits in two: offsets below VirtioRegOff are
// the generic emulated device the Device I/O microbenchmark measures;
// VirtioRegOff..+0x100 are the virtio-mmio registers of a real echo device
// whose virtqueue lives in guest memory. The backend runs in the VM's own
// hypervisor, which for a nested VM means every register access is first
// forwarded (Turtles I/O).
const (
	// VirtioRegOff is the virtio register block's offset in the device
	// window.
	VirtioRegOff = 0x200
	// VirtioIRQ is the device's completion interrupt.
	VirtioIRQ = 49
)

// Virtio register indices into VM.vio.
const (
	vioQueuePFN = iota
	vioQueueNum
	vioStatus
	vioIntStatus
	numVioWords
)

// hypRingMem is the backend's vhost-style access to guest memory:
// addresses are guest-physical, pre-translated through the hypervisor's
// tables (charged as the backend's memory traffic).
type hypRingMem struct {
	h *Hypervisor
	v *VCPU
	c *arm.CPU
}

// RingFault reports a virtio ring or buffer address that does not map in
// the VM's tables: a buggy or malicious guest programmed QueuePFN with
// garbage. It is thrown by the backend's memory view and caught at the
// kick boundary, which fails the device instead of the simulator.
type RingFault struct {
	Hyp  string
	Addr mem.Addr
}

func (f *RingFault) Error() string {
	return fmt.Sprintf("kvm[%s]: virtio ring address %#x unmapped", f.Hyp, uint64(f.Addr))
}

func (m hypRingMem) translate(a mem.Addr) mem.Addr {
	pa, ok := m.h.ipaToMachine(m.v, a)
	if !ok {
		panic(&RingFault{Hyp: m.h.Cfg.Name, Addr: a})
	}
	return pa
}

func (m hypRingMem) Read64(a mem.Addr) uint64 {
	return m.c.PhysRead64(m.translate(a))
}

func (m hypRingMem) Write64(a mem.Addr, v uint64) {
	m.c.PhysWrite64(m.translate(a), v)
}

// virtioMMIO emulates the virtio-mmio register block.
func (h *Hypervisor) virtioMMIO(c *arm.CPU, v *VCPU, e *arm.Exception) uint64 {
	vm := v.VM
	if !vm.virtioOn {
		h.bumpGen()
		vm.virtioOn = true
	}
	dev := &vm.vio
	off := uint64(e.FaultIPA-VirtioBase) - VirtioRegOff
	c.Work(workVirtioReg)
	if !e.Write {
		switch off {
		case virtio.RegMagic:
			return virtio.Magic
		case virtio.RegVersion:
			return 1
		case virtio.RegDeviceID:
			return virtio.EchoDeviceID
		case virtio.RegQueueNumMax:
			return virtio.QueueSize
		case virtio.RegQueuePFN:
			return dev.get(vioQueuePFN)
		case virtio.RegIntStatus:
			return dev.get(vioIntStatus)
		case virtio.RegStatus:
			return dev.get(vioStatus)
		default:
			return 0
		}
	}
	switch off {
	case virtio.RegQueueNum:
		dev.set(vioQueueNum, e.Val)
	case virtio.RegQueuePFN:
		dev.set(vioQueuePFN, e.Val)
		h.bumpGen()
		vm.echo = &virtio.Echo{Ring: virtio.Ring{
			Mem:  hypRingMem{h: h, v: v, c: c},
			Base: mem.Addr(e.Val << mem.PageShift),
		}}
	case virtio.RegStatus:
		dev.set(vioStatus, e.Val)
	case virtio.RegQueueNotify:
		// The kick: drain the queue in the backend, then signal
		// completion with the device interrupt.
		if vm.echo == nil || dev.get(vioStatus)&virtioStatusNeedsReset != 0 {
			return 0
		}
		c.Work(workVirtioKick)
		// Refresh the backend's memory view (the CPU handle changes per
		// trap).
		vm.echo.Ring.Mem = hypRingMem{h: h, v: v, c: c}
		n, rf := drainRing(vm.echo)
		if rf != nil {
			// The guest's ring points at unmapped memory: fail the
			// device (NEEDS_RESET, no completion) and keep running; the
			// driver observes the missing used entry.
			dev.set(vioStatus, dev.get(vioStatus)|virtioStatusNeedsReset)
			h.bumpGen()
			vm.echo = nil
			return 0
		}
		if n > 0 {
			dev.set(vioIntStatus, dev.get(vioIntStatus)|1)
			h.injectVIRQ(v, VirtioIRQ)
			h.flushPendingVIRQ(v)
		}
	case virtio.RegIntACK:
		dev.set(vioIntStatus, dev.get(vioIntStatus)&^uint64(uint32(e.Val)))
	}
	return 0
}

// virtioStatusNeedsReset is the DEVICE_NEEDS_RESET status bit the device
// sets when the backend hits an unusable ring.
const virtioStatusNeedsReset = 0x40

// drainRing runs the backend drain, containing *RingFault throws from the
// ring memory view; any other panic is a model bug and propagates.
func drainRing(e *virtio.Echo) (n int, rf *RingFault) {
	defer func() {
		if v := recover(); v != nil {
			f, ok := v.(*RingFault)
			if !ok {
				panic(v)
			}
			rf = f
		}
	}()
	return e.Drain(), nil
}

// Backend work constants.
const (
	workVirtioReg  = 150
	workVirtioKick = 700
)

// Guest-side driver.

// guestRingMem accesses the ring through the guest's own memory path
// (Stage-2 translated, faultable, charged to the guest).
type guestRingMem struct{ g *GuestCtx }

func (m guestRingMem) Read64(a mem.Addr) uint64     { return m.g.CPU.GuestRead(a, 8) }
func (m guestRingMem) Write64(a mem.Addr, v uint64) { m.g.CPU.GuestWrite(a, 8, v) }

// virtioRingIPA is where the guest driver places its virtqueue.
const virtioRingIPA = GuestRAMIPA + 0x10_0000

// virtioBufIPA is the data buffer area.
const virtioBufIPA = GuestRAMIPA + 0x11_0000

// VirtioInit probes the device and programs the virtqueue location.
func (g *GuestCtx) VirtioInit() error {
	base := VirtioBase + VirtioRegOff
	if got := g.CPU.GuestRead(base+virtio.RegMagic, 4); got != virtio.Magic {
		return fmt.Errorf("kvm: virtio magic = %#x", got)
	}
	if got := g.CPU.GuestRead(base+virtio.RegDeviceID, 4); got != virtio.EchoDeviceID {
		return fmt.Errorf("kvm: virtio device id = %d", got)
	}
	g.CPU.GuestWrite(base+virtio.RegQueueNum, 4, virtio.QueueSize)
	g.CPU.GuestWrite(base+virtio.RegQueuePFN, 4, uint64(virtioRingIPA)>>mem.PageShift)
	g.CPU.GuestWrite(base+virtio.RegStatus, 4, 0xf) // DRIVER_OK
	g.VCPU.VM.Hyp.bumpGen()
	g.vq = &virtio.Driver{Ring: virtio.Ring{Mem: guestRingMem{g}, Base: virtioRingIPA}}
	return nil
}

// VirtioEcho sends one 8-byte payload through the device and returns the
// device's response (the echo transform), exercising the full
// paravirtualized I/O path: buffer and ring writes in guest RAM, a
// trapped kick, backend processing in the hypervisor, a completion
// interrupt, and the used-ring harvest.
func (g *GuestCtx) VirtioEcho(payload uint64) (uint64, error) {
	if g.vq == nil {
		return 0, fmt.Errorf("kvm: VirtioEcho before VirtioInit")
	}
	buf := virtioBufIPA + mem.Addr(g.vq.Ring.AvailIdx()%virtio.QueueSize)*64
	g.CPU.GuestWrite(buf, 8, payload)
	g.vq.Submit(buf, 8)
	// The kick: traps to the hypervisor, which drains the queue.
	g.CPU.GuestWrite(VirtioBase+VirtioRegOff+virtio.RegQueueNotify, 4, 0)
	g.Work(50) // interrupt delivery point
	if _, ok := g.vq.Completed(); !ok {
		return 0, fmt.Errorf("kvm: no used entry after kick")
	}
	// Acknowledge the completion interrupt.
	g.CPU.GuestWrite(VirtioBase+VirtioRegOff+virtio.RegIntACK, 4, 1)
	return g.CPU.GuestRead(buf, 8), nil
}
