// Package wire is the binary codec substrate for durable checkpoint
// serialization. Each checkpoint type (internal/mem, arm, gic, ...) has
// one walk, Wire, that lists its fields once and runs in both directions:
// over an encoding Codec it appends every field to a Writer, over a
// decoding Codec it overwrites them from a Reader. Encoder and decoder
// therefore cannot disagree on field order. The fleet checkpoint store
// persists the resulting bytes.
//
// The encoding is deliberately plain: fixed-width little-endian integers
// and length-prefixed byte strings, no compression, no reflection. Two
// properties matter more than compactness:
//
//   - Determinism: the same state always encodes to the same bytes (maps
//     are emitted in sorted key order), so content addressing — hashing
//     the payload — identifies identical checkpoints across processes.
//   - Fail-stop decoding: a Reader carries a sticky error; a truncated or
//     corrupted stream makes every subsequent read return zero values and
//     leaves the error set, so walks check Err() once at the end instead
//     of at every field, and corruption can never panic a worker.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Writer accumulates an encoded payload.
type Writer struct {
	buf []byte
	err error
}

// Bytes returns the encoded payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Err returns the first error recorded by Fail (nil otherwise).
func (w *Writer) Err() error { return w.err }

// Fail records an encoding error (e.g. state the codec cannot express,
// like an installed guest IRQ handler). The first error sticks.
func (w *Writer) Fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int appends an int as a little-endian two's-complement uint64.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// Len appends a collection length (uint32; collections beyond 4G entries
// do not occur in checkpoints).
func (w *Writer) Len(n int) {
	if n < 0 || int64(n) > int64(^uint32(0)) {
		w.Fail("wire: length %d out of range", n)
		n = 0
	}
	w.U32(uint32(n))
}

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.Len(len(b))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
}

// Reader decodes a payload produced by a Writer. All reads after an error
// (truncation, a length exceeding the remaining bytes) return zero values;
// Err reports the first failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a decoding error (semantic mismatches discovered by a
// caller, e.g. a topology that does not fit the live stack).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Fail("wire: truncated payload (need %d bytes, have %d)", n, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Len reads a collection length and sanity-checks it against the
// remaining bytes (each element occupies at least one byte in every
// encoding here), so a corrupted length cannot drive a huge allocation.
func (r *Reader) Len() int {
	n := int(r.U32())
	if r.err == nil && n > r.Remaining() {
		r.Fail("wire: length %d exceeds remaining %d bytes", n, r.Remaining())
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte string. The returned slice aliases
// the payload; callers that retain it must copy.
func (r *Reader) Blob() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Blob()) }

// Codec is one direction of a checkpoint walk: an encoder (NewEncoder)
// appends each field it is handed, a decoder (NewDecoder) overwrites it.
// The field helpers below take the Codec first and a pointer to the field.
type Codec struct {
	w *Writer
	r *Reader
}

// NewEncoder returns a Codec that encodes into a fresh payload.
func NewEncoder() *Codec { return &Codec{w: &Writer{}} }

// NewDecoder returns a Codec that decodes the payload b.
func NewDecoder(b []byte) *Codec { return &Codec{r: NewReader(b)} }

// Decoding reports the walk's direction.
func (c *Codec) Decoding() bool { return c.r != nil }

// Payload returns the encoded bytes (encoders only).
func (c *Codec) Payload() []byte { return c.w.Bytes() }

// Remaining returns the number of unread bytes (decoders only).
func (c *Codec) Remaining() int { return c.r.Remaining() }

// Err returns the first error of either direction, or nil.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.Err()
	}
	return c.w.Err()
}

// Fail records an error: state an encoder cannot express, or a decoded
// value that does not fit the live stack. The first error sticks.
func (c *Codec) Fail(format string, args ...any) {
	if c.r != nil {
		c.r.Fail(format, args...)
	} else {
		c.w.Fail(format, args...)
	}
}

// Len walks a collection length: n when encoding, the stored length
// (bounded by the remaining payload) when decoding.
func (c *Codec) Len(n int) int {
	if c.r != nil {
		return c.r.Len()
	}
	c.w.Len(n)
	return n
}

// Bool walks a bool.
func Bool(c *Codec, v *bool) {
	if c.r != nil {
		*v = c.r.Bool()
	} else {
		c.w.Bool(*v)
	}
}

// U8 walks a one-byte integer.
func U8[T ~uint8](c *Codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U8())
	} else {
		c.w.U8(uint8(*v))
	}
}

// U16 walks a little-endian uint16.
func U16[T ~uint16](c *Codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U16())
	} else {
		c.w.U16(uint16(*v))
	}
}

// U32 walks a little-endian uint32.
func U32[T ~uint32](c *Codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U32())
	} else {
		c.w.U32(uint32(*v))
	}
}

// U64 walks a little-endian uint64.
func U64[T ~uint64](c *Codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U64())
	} else {
		c.w.U64(uint64(*v))
	}
}

// Int walks an int as a two's-complement uint64.
func Int[T ~int](c *Codec, v *T) {
	if c.r != nil {
		*v = T(c.r.Int())
	} else {
		c.w.Int(int(*v))
	}
}

// Blob walks a length-prefixed byte string; a decoder copies it out of
// the payload (nil when empty).
func Blob(c *Codec, b *[]byte) {
	if c.r != nil {
		*b = append([]byte(nil), c.r.Blob()...)
	} else {
		c.w.Blob(*b)
	}
}

// Fixed walks a byte string whose size the type fixes (a page): it is
// stored length-prefixed, and decoding fails unless the stored length is
// len(b).
func Fixed(c *Codec, b []byte) {
	if c.r == nil {
		c.w.Blob(b)
		return
	}
	if got := c.r.Blob(); c.r.Err() == nil {
		if len(got) != len(b) {
			c.r.Fail("wire: %d-byte field stored with %d bytes", len(b), len(got))
		}
		copy(b, got)
	}
}

// Words walks a run of 64-bit words whose length the type fixes (a
// register file, a counter array): Each(c, s, U64), with one bounds
// check for the whole run.
func Words[T ~uint64](c *Codec, s []T) {
	if c.r == nil {
		b := c.w.buf
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		c.w.buf = b
		return
	}
	b := c.r.take(8 * len(s))
	if b == nil {
		return
	}
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// WordSlice walks a variable-length run of 64-bit words: Slice(c, s,
// U64), with one bounds check for the whole run.
func WordSlice[T ~uint64](c *Codec, s *[]T) {
	n := c.Len(len(*s))
	if c.r != nil {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	Words(c, *s)
}

// Walker is a pointer to a type with its own walk.
type Walker[T any] interface {
	*T
	Wire(c *Codec)
}

// Struct walks v through its Wire method, adapting a walkable type to the
// element parameter of Each, Slice, Ptr and Map.
func Struct[T any, P Walker[T]](c *Codec, v *T) { P(v).Wire(c) }

// Each walks the elements of a fixed-length list (an array); no length
// is stored.
func Each[T any](c *Codec, s []T, elem func(*Codec, *T)) {
	for i := range s {
		elem(c, &s[i])
	}
}

// Slice walks a variable-length list. A decoder rebuilds it, nil when
// empty; the stored length is bounded by the remaining payload.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := c.Len(len(*s))
	if c.r != nil {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// Topo walks a list with one entry per live object L (CPUs, VMs,
// hypervisor levels), each entry against its live counterpart. Both
// directions fail unless the list's length is len(live): an encoder's
// checkpoint must come from this topology, a decoder's payload must fit
// it. A decoder starts each entry from its zero value. The element walk
// takes the entry first, so a method expression like (*T).wire fits.
func Topo[T, L any](c *Codec, s *[]T, live []L, what string, elem func(*T, *Codec, L)) {
	if n := c.Len(len(*s)); c.Err() == nil && n != len(live) {
		c.Fail("%s: checkpoint has %d, live topology has %d", what, n, len(live))
	}
	if c.Err() != nil {
		return
	}
	if c.r != nil {
		*s = make([]T, len(live))
	}
	for i, l := range live {
		if c.Err() != nil {
			return
		}
		elem(&(*s)[i], c, l)
	}
}

// Ptr walks an optional value behind a presence flag. A decoder
// allocates the value only when the flag is set.
func Ptr[T any](c *Codec, p **T, elem func(*Codec, *T)) {
	on := *p != nil
	Bool(c, &on)
	if c.r != nil {
		*p = nil
		if !on || c.r.Err() != nil {
			return
		}
		*p = new(T)
	}
	if on {
		elem(c, *p)
	}
}

// Map walks a map as a list of key/value pairs in ascending key order
// (cmp), so equal maps encode to equal bytes. A decoder rebuilds it, nil
// when empty.
func Map[K comparable, V any](c *Codec, m *map[K]V, cmp func(a, b K) int,
	key func(*Codec, *K), val func(*Codec, *V)) {
	keys := make([]K, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	n := c.Len(len(keys))
	if c.r != nil {
		*m = nil
		if n > 0 {
			*m = make(map[K]V, n)
		}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var k K
		var v V
		if c.r == nil {
			k = keys[i]
			v = (*m)[k]
		}
		key(c, &k)
		val(c, &v)
		if c.r != nil {
			(*m)[k] = v
		}
	}
}
