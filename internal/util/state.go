package util

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// State encoding: the byte form of a checkpoint. Each structure appends
// its tables to one byte string with the Append functions and decodes
// them straight back into its tables through a StateReader. Integers are
// little-endian and fixed-width; a slice is a u64 element count followed
// by its elements; a bool is one byte, 0 or 1. The typed loops below
// beat encoding/binary's Append and Decode by 3–4× per element: those
// take their byte order as an interface.

// AppendBool appends x as one byte, 0 or 1.
func AppendBool(b []byte, x bool) []byte {
	if x {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendUint8 appends x as one byte.
func AppendUint8(b []byte, x uint8) []byte { return append(b, x) }

// AppendUint64 appends x as eight bytes.
func AppendUint64(b []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(b, x) }

// AppendInt appends x as a signed 64-bit integer.
func AppendInt(b []byte, x int) []byte { return AppendUint64(b, uint64(int64(x))) }

// AppendLen appends the element count of a table whose elements follow
// one at a time; StateReader.Len checks it.
func AppendLen(b []byte, n int) []byte { return AppendUint64(b, uint64(n)) }

// AppendString appends s as a length-prefixed byte string.
func AppendString(b []byte, s string) []byte { return append(AppendLen(b, len(s)), s...) }

// AppendBools appends s, one byte per element.
func AppendBools(b []byte, s []bool) []byte {
	b = AppendLen(b, len(s))
	for _, x := range s {
		b = AppendBool(b, x)
	}
	return b
}

// AppendInt8s appends s, one byte per element.
func AppendInt8s(b []byte, s []int8) []byte {
	b = AppendLen(b, len(s))
	for _, x := range s {
		b = append(b, byte(x))
	}
	return b
}

// AppendUint8s appends s, one byte per element.
func AppendUint8s(b []byte, s []uint8) []byte { return append(AppendLen(b, len(s)), s...) }

// AppendUint16s appends s, two bytes per element.
func AppendUint16s(b []byte, s []uint16) []byte { return put16(AppendLen(b, len(s)), s) }

// AppendUint32s appends s, four bytes per element.
func AppendUint32s(b []byte, s []uint32) []byte { return put32(AppendLen(b, len(s)), s) }

// AppendInt64s appends s, eight bytes per element.
func AppendInt64s(b []byte, s []int64) []byte { return put64(AppendLen(b, len(s)), s) }

// AppendUint64s appends s, eight bytes per element.
func AppendUint64s(b []byte, s []uint64) []byte { return put64(AppendLen(b, len(s)), s) }

func put16[T ~int16 | ~uint16](b []byte, s []T) []byte {
	for _, x := range s {
		b = binary.LittleEndian.AppendUint16(b, uint16(x))
	}
	return b
}

func put32[T ~int32 | ~uint32](b []byte, s []T) []byte {
	for _, x := range s {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func put64[T ~int64 | ~uint64](b []byte, s []T) []byte {
	for _, x := range s {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

// errStateShort reports encoded state that ends before its reader does.
var errStateShort = errors.New("state ends early")

// StateReader decodes what the Append functions encode. Its first error
// sticks: every later read returns zero and leaves its destination
// alone, so a LoadState method reads all its tables and checks Err once.
// The slice methods decode into dst in place and fail unless the encoded
// element count is len(dst): a table is restored only into a table of
// its own geometry.
type StateReader struct {
	b   []byte
	at  int // the first byte not yet consumed
	err error
}

// NewStateReader reads from b, which it does not copy or keep past the
// last read.
func NewStateReader(b []byte) *StateReader { return &StateReader{b: b} }

// Err returns the first error a read met, or nil.
func (r *StateReader) Err() error { return r.err }

// Left returns the number of bytes not yet consumed.
func (r *StateReader) Left() int { return len(r.b) - r.at }

// fail records err unless an earlier error stands, and stops every
// later read.
func (r *StateReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.at = len(r.b)
}

// take consumes the next n bytes; ok is false, and the error recorded,
// when fewer remain.
func (r *StateReader) take(n int) (b []byte, ok bool) {
	if n > len(r.b)-r.at {
		r.fail(errStateShort)
		return nil, false
	}
	b = r.b[r.at : r.at+n : r.at+n]
	r.at += n
	return b, true
}

// Uint8 reads one byte.
func (r *StateReader) Uint8() uint8 {
	b, ok := r.take(1)
	if !ok {
		return 0
	}
	return b[0]
}

// Bool reads one byte, which must be 0 or 1.
func (r *StateReader) Bool() bool {
	c := r.Uint8()
	if c > 1 {
		r.fail(fmt.Errorf("bool byte %d", c))
	}
	return c == 1
}

// Uint64 reads eight bytes.
func (r *StateReader) Uint64() uint64 {
	b, ok := r.take(8)
	if !ok {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a signed 64-bit integer, which must fit an int.
func (r *StateReader) Int() int {
	x := int64(r.Uint64())
	if x < math.MinInt || x > math.MaxInt {
		r.fail(fmt.Errorf("%d overflows int", x))
		return 0
	}
	return int(x)
}

// Len reads an element count and fails unless it is n.
func (r *StateReader) Len(n int) {
	if got := r.Uint64(); r.err == nil && got != uint64(n) {
		r.fail(fmt.Errorf("table of %d elements, want %d", got, n))
	}
}

// Bytes reads a length-prefixed byte string. The result aliases the
// reader's input.
func (r *StateReader) Bytes() []byte {
	n := r.Uint64()
	if n > uint64(r.Left()) {
		r.fail(errStateShort)
		return nil
	}
	b, _ := r.take(int(n))
	return b
}

// elems reads the count of a table of n elements of size bytes each and
// returns their encoding; ok is false after any error.
func (r *StateReader) elems(n, size int) (b []byte, ok bool) {
	if r.Len(n); r.err != nil {
		return nil, false
	}
	return r.take(n * size)
}

// Bools decodes into dst; every byte must be 0 or 1.
func (r *StateReader) Bools(dst []bool) {
	b, ok := r.elems(len(dst), 1)
	if !ok {
		return
	}
	for i, c := range b {
		if c > 1 {
			r.fail(fmt.Errorf("bool byte %d", c))
			return
		}
		dst[i] = c == 1
	}
}

// Int8s decodes into dst.
func (r *StateReader) Int8s(dst []int8) {
	if b, ok := r.elems(len(dst), 1); ok {
		for i, c := range b {
			dst[i] = int8(c)
		}
	}
}

// Uint8s decodes into dst.
func (r *StateReader) Uint8s(dst []uint8) {
	if b, ok := r.elems(len(dst), 1); ok {
		copy(dst, b)
	}
}

// Uint16s decodes into dst.
func (r *StateReader) Uint16s(dst []uint16) {
	if b, ok := r.elems(len(dst), 2); ok {
		get16(dst, b)
	}
}

// Uint32s decodes into dst.
func (r *StateReader) Uint32s(dst []uint32) {
	if b, ok := r.elems(len(dst), 4); ok {
		get32(dst, b)
	}
}

// Int64s decodes into dst.
func (r *StateReader) Int64s(dst []int64) {
	if b, ok := r.elems(len(dst), 8); ok {
		get64(dst, b)
	}
}

// Uint64s decodes into dst.
func (r *StateReader) Uint64s(dst []uint64) {
	if b, ok := r.elems(len(dst), 8); ok {
		get64(dst, b)
	}
}

// The get loops advance b rather than index it, which lets the
// compiler drop most bounds checks.

func get16[T ~int16 | ~uint16](s []T, b []byte) {
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint16(b))
		b = b[2:]
	}
}

func get32[T ~int32 | ~uint32](s []T, b []byte) {
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
}

func get64[T ~int64 | ~uint64](s []T, b []byte) {
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
}
