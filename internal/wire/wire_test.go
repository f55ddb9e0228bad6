package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestRoundTrip: every primitive reads back exactly what was written,
// in order, with nothing left over.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(math.MaxUint64)
	w.Int(-42)
	w.Int(1 << 40)
	w.Blob([]byte{1, 2, 3})
	w.Blob(nil)
	w.String("neve")
	w.String("")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Int(); got != 1<<40 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := r.Blob(); len(got) != 0 {
		t.Errorf("empty Blob = %v", got)
	}
	if got := r.String(); got != "neve" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

// TestTruncationIsSticky: reading past the end sets the error once and
// every later read returns zero values without panicking.
func TestTruncationIsSticky(t *testing.T) {
	var w Writer
	w.U64(7)
	for cut := 0; cut < 8; cut++ {
		r := NewReader(w.Bytes()[:cut])
		if got := r.U64(); got != 0 {
			t.Errorf("cut %d: truncated U64 = %d; want 0", cut, got)
		}
		if r.Err() == nil {
			t.Fatalf("cut %d: no error after truncated read", cut)
		}
		first := r.Err()
		// Every subsequent read is a safe zero-value no-op.
		if r.U32() != 0 || r.Bool() || r.Blob() != nil || r.String() != "" {
			t.Errorf("cut %d: reads after error returned non-zero values", cut)
		}
		if r.Err() != first {
			t.Errorf("cut %d: error was overwritten", cut)
		}
	}
}

// TestCorruptLengthCannotAllocate: a length word larger than the
// remaining payload is rejected before any allocation.
func TestCorruptLengthCannotAllocate(t *testing.T) {
	var w Writer
	w.Blob(make([]byte, 16))
	b := append([]byte(nil), w.Bytes()...)
	b[0], b[1], b[2], b[3] = 0xFF, 0xFF, 0xFF, 0x7F // claim ~2G entries

	r := NewReader(b)
	if got := r.Blob(); got != nil {
		t.Errorf("corrupt Blob = %d bytes; want nil", len(got))
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "exceeds remaining") {
		t.Fatalf("err = %v; want length-exceeds-remaining", err)
	}
}

// TestWriterFailSticks: the first semantic failure wins and survives
// further writes.
func TestWriterFailSticks(t *testing.T) {
	var w Writer
	w.Fail("first: %d", 1)
	w.Fail("second")
	w.U64(9)
	if err := w.Err(); err == nil || err.Error() != "first: 1" {
		t.Fatalf("err = %v; want first: 1", err)
	}
	// Len range check fails the writer too.
	var w2 Writer
	w2.Len(-1)
	if w2.Err() == nil {
		t.Fatal("negative length accepted")
	}
}

// TestDeterminism: encoding the same values twice yields identical
// bytes — the property content addressing rests on.
func TestDeterminism(t *testing.T) {
	enc := func() []byte {
		var w Writer
		w.U64(123)
		w.String("spec")
		w.Blob([]byte{9, 8, 7})
		return w.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical writes produced different bytes")
	}
}

// TestCodecWalkRoundTrips drives one walk in both directions: maps encode
// in sorted key order whatever their iteration order, nil pointers and
// empty slices survive as nil, and a decoder reproduces the value.
func TestCodecWalkRoundTrips(t *testing.T) {
	type rec struct {
		m     map[uint16]uint64
		p, q  *int
		s     []int
		words []uint64
		page  [16]byte
	}
	walk := func(c *Codec, r *rec) {
		Map(c, &r.m, func(a, b uint16) int { return int(a) - int(b) }, U16, U64)
		Ptr(c, &r.p, Int)
		Ptr(c, &r.q, Int)
		Slice(c, &r.s, Int)
		WordSlice(c, &r.words)
		Fixed(c, r.page[:])
	}
	seven := 7
	in := rec{m: map[uint16]uint64{}, q: &seven, words: []uint64{1, 1 << 63}, page: [16]byte{3: 9}}
	for k := uint16(0); k < 64; k++ {
		in.m[k*7919] = uint64(k)
	}
	enc := func() []byte {
		c := NewEncoder()
		walk(c, &in)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return c.Payload()
	}
	b := enc()
	if !bytes.Equal(b, enc()) {
		t.Fatal("the same map encoded to different bytes")
	}
	var out rec
	c := NewDecoder(b)
	walk(c, &out)
	if err := c.Err(); err != nil || c.Remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", err, c.Remaining())
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the value:\n in  %+v\n out %+v", in, out)
	}
}

// TestCodecTopoChecksBothDirections: a list sized by the live topology
// must match it when encoding (the checkpoint came from elsewhere) and
// when decoding (the payload came from elsewhere).
func TestCodecTopoChecksBothDirections(t *testing.T) {
	elem := func(v *uint64, c *Codec, _ int) { U64(c, v) }
	c := NewEncoder()
	two := []uint64{1, 2}
	Topo(c, &two, []int{0, 1, 2}, "cpus", elem)
	if c.Err() == nil {
		t.Fatal("encoder accepted 2 entries for a 3-entry topology")
	}
	c = NewEncoder()
	Topo(c, &two, []int{0, 1}, "cpus", elem)
	var got []uint64
	d := NewDecoder(c.Payload())
	Topo(d, &got, []int{0, 1, 2}, "cpus", elem)
	if d.Err() == nil {
		t.Fatal("decoder accepted 2 entries for a 3-entry topology")
	}
}
