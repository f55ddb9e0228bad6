package trace

import (
	"cmp"

	"github.com/nevesim/neve/internal/wire"
)

// Wire walks the collector checkpoint. The sparse counter map is walked
// in ascending (key, addr) order so that identical state always encodes
// to identical bytes.
func (cp *CollectorCheckpoint) Wire(c *wire.Codec) {
	wire.Slice(c, &cp.events, wire.Struct)
	wire.Words(c, cp.byReason[:])
	wire.WordSlice(c, &cp.dense)
	wire.Map(c, &cp.sparse, func(a, b addrKey) int {
		return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.addr, b.addr))
	}, wire.Struct, wire.U64)
	wire.Bool(c, &cp.enabled)
	wire.Bool(c, &cp.record)
	// The recent ring's nil-ness is semantic (nil = ring disabled). The
	// presence flag only keeps the format: an enabled ring is never empty,
	// and Slice decodes an empty list as nil.
	on := cp.recent != nil
	wire.Bool(c, &on)
	wire.Slice(c, &cp.recent, wire.Struct)
	wire.Int(c, &cp.recentNext)
	wire.U64(c, &cp.recentTotal)
}

// Wire walks one trap event.
func (ev *Event) Wire(c *wire.Codec) {
	wire.Int(c, &ev.Reason)
	wire.U8(c, &ev.Arch)
	wire.U8(c, &ev.Code)
	wire.Bool(c, &ev.Write)
	wire.U16(c, &ev.Aux)
	wire.U64(c, &ev.Addr)
	wire.Int(c, &ev.FromLevel)
	wire.Int(c, &ev.ToLevel)
	wire.U64(c, &ev.Cycle)
}

// Wire walks a sparse counter key.
func (k *addrKey) Wire(c *wire.Codec) {
	wire.U32(c, &k.k)
	wire.U64(c, &k.addr)
}
