package util

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// State encoding: the byte form of a checkpoint. Each structure appends
// its tables to one byte string with the Append functions and decodes
// them straight back into its tables through a StateReader. Integers are
// little-endian and fixed-width; a bool is one byte, 0 or 1.
//
// A table (a slice) is a u64 element count, a form byte and then its
// elements in the form the encoder picks from its contents:
//
//	dense  (0): every element, in order;
//	masked (1): a bitmap of ⌈count/8⌉ bytes, bit i%8 of byte i/8 set
//	            when element i is non-zero, then the non-zero elements
//	            alone, in order. A bool table is its bitmap alone.
//
// A table is masked when fewer than half its elements are non-zero, so
// the bitmap never costs more than the zeros it drops, and the mostly
// empty tables warming leaves (a BTB with a few dozen valid entries of
// 8,192) shrink to little more than their bitmaps. The form is a
// function of the contents and a zero element is never listed, so equal
// tables encode to equal bytes. The typed loops below beat
// encoding/binary's Append and Decode by 3–4× per element: those take
// their byte order as an interface.

// Table forms, the byte after a table's element count.
const (
	formDense  = 0
	formMasked = 1
)

// elem is the element type of an integer table.
type elem interface {
	~int8 | ~uint8 | ~uint16 | ~uint32 | ~int64 | ~uint64
}

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

// AppendBools appends s as a table of one byte per element, or of its
// bitmap alone.
func AppendBools(b []byte, s []bool) []byte {
	b, masked := appendHead(b, s)
	if !masked {
		for _, x := range s {
			var c byte // set without a branch: valid bits are often random
			if x {
				c = 1
			}
			b = append(b, c)
		}
	}
	return b
}

// AppendInt8s appends s as a table of one byte per element.
func AppendInt8s(b []byte, s []int8) []byte { return appendTable(b, s, 1, put8[int8]) }

// AppendUint8s appends s as a table of one byte per element.
func AppendUint8s(b []byte, s []uint8) []byte {
	return appendTable(b, s, 1, func(b, s []byte) []byte { return append(b, s...) })
}

// AppendUint16s appends s as a table of two bytes per element.
func AppendUint16s(b []byte, s []uint16) []byte { return appendTable(b, s, 2, put16[uint16]) }

// AppendUint32s appends s as a table of four bytes per element.
func AppendUint32s(b []byte, s []uint32) []byte { return appendTable(b, s, 4, put32[uint32]) }

// AppendInt64s appends s as a table of eight bytes per element.
func AppendInt64s(b []byte, s []int64) []byte { return appendTable(b, s, 8, put64[int64]) }

// AppendUint64s appends s as a table of eight bytes per element.
func AppendUint64s(b []byte, s []uint64) []byte { return appendTable(b, s, 8, put64[uint64]) }

// appendTable appends s, size bytes per element: dense through put, or
// masked, listing the elements of the bitmap's set bits.
func appendTable[T elem](b []byte, s []T, size int, put func([]byte, []T) []byte) []byte {
	b, masked := appendHead(b, s)
	if !masked {
		return put(b, s)
	}
	// bm keeps reading the bitmap if an append moves b.
	bm := b[len(b)-(len(s)+7)/8:]
	for at := 0; len(bm) > 0; at += 64 {
		var w uint64
		for w, bm = nextWord(bm); w != 0; w &= w - 1 {
			b = putLE(b, uint64(s[at+bits.TrailingZeros64(w)]), size)
		}
	}
	return b
}

// appendHead appends the element count of s and its form, followed by
// its bitmap when the form is masked, and reports whether it is. It is
// the counting pass: the bitmap is built word by word as it counts the
// non-zero elements, and dropped again when they are half or more.
func appendHead[T comparable](b []byte, s []T) (_ []byte, masked bool) {
	b = AppendLen(b, len(s))
	form := len(b)
	b = append(b, formMasked)
	var zero T
	set := 0
	for at := 0; at < len(s); at += 64 {
		var w uint64
		for j, x := range s[at:min(at+64, len(s))] {
			var bit uint64
			if x != zero {
				bit = 1
			}
			w |= bit << (j & 63)
		}
		set += bits.OnesCount64(w)
		b = appendWord(b, w, min(8, (len(s)-at+7)/8))
	}
	if 2*set < len(s) {
		return b, true
	}
	b[form] = formDense
	return b[:form+1], false
}

// appendWord appends the low n bytes of the bitmap word w.
func appendWord(b []byte, w uint64, n int) []byte {
	if n == 8 {
		return binary.LittleEndian.AppendUint64(b, w)
	}
	for i := range n {
		b = append(b, byte(w>>(8*i)))
	}
	return b
}

// putLE appends the low size bytes of x.
func putLE(b []byte, x uint64, size int) []byte {
	switch size {
	case 1:
		return append(b, byte(x))
	case 2:
		return binary.LittleEndian.AppendUint16(b, uint16(x))
	case 4:
		return binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return binary.LittleEndian.AppendUint64(b, x)
}

func put8[T ~int8](b []byte, s []T) []byte {
	for _, x := range s {
		b = append(b, byte(x))
	}
	return b
}

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
// The table methods decode into dst in place, either form, and fail
// unless the encoded element count is len(dst): a table is restored
// only into a table of its own geometry. They also refuse a form other
// than dense or masked, a bitmap bit set past the count, and a bitmap
// whose elements are missing.
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

// table reads the element count and the form of a table of n elements
// of size bytes each, then its elements: all n of them when dense, and
// the bitmap, returned as bm, and the elements of its set bits when
// masked. Size 0 is a bool table: one byte per element when dense, its
// bitmap alone when masked. ok is false after any error.
func (r *StateReader) table(n, size int) (elems, bm []byte, masked, ok bool) {
	if r.Len(n); r.err != nil {
		return nil, nil, false, false
	}
	switch form := r.Uint8(); {
	case r.err != nil:
		return nil, nil, false, false
	case form == formDense:
		elems, ok = r.take(n * max(size, 1))
		return elems, nil, false, ok
	case form != formMasked:
		r.fail(fmt.Errorf("table form %d", form))
		return nil, nil, false, false
	}
	if bm, ok = r.take((n + 7) / 8); !ok {
		return nil, nil, false, false
	}
	if n%8 != 0 && bm[len(bm)-1]>>(n%8) != 0 {
		r.fail(fmt.Errorf("bitmap of a %d-element table sets a bit past it", n))
		return nil, nil, false, false
	}
	set := 0
	for rest := bm; len(rest) > 0; {
		var w uint64
		w, rest = nextWord(rest)
		set += bits.OnesCount64(w)
	}
	elems, ok = r.take(set * size)
	return elems, bm, true, ok
}

// nextWord returns the bitmap word in the first eight bytes of bm, or in
// all of them when fewer remain, and the bytes after it.
func nextWord(bm []byte) (uint64, []byte) {
	if len(bm) >= 8 {
		return binary.LittleEndian.Uint64(bm), bm[8:]
	}
	var w uint64
	for i, c := range bm {
		w |= uint64(c) << (8 * i)
	}
	return w, nil
}

// Bools decodes into dst; every byte of a dense table must be 0 or 1.
func (r *StateReader) Bools(dst []bool) {
	b, bm, masked, ok := r.table(len(dst), 0)
	switch {
	case !ok:
	case masked:
		clear(dst)
		for at := 0; len(bm) > 0; at += 64 {
			var w uint64
			for w, bm = nextWord(bm); w != 0; w &= w - 1 {
				dst[at+bits.TrailingZeros64(w)] = true
			}
		}
	default:
		for i, c := range b {
			if c > 1 {
				r.fail(fmt.Errorf("bool byte %d", c))
				return
			}
			dst[i] = c == 1
		}
	}
}

// Int8s decodes into dst.
func (r *StateReader) Int8s(dst []int8) { readTable(r, dst, 1, get8[int8]) }

// Uint8s decodes into dst.
func (r *StateReader) Uint8s(dst []uint8) {
	readTable(r, dst, 1, func(dst, b []byte) { copy(dst, b) })
}

// Uint16s decodes into dst.
func (r *StateReader) Uint16s(dst []uint16) { readTable(r, dst, 2, get16[uint16]) }

// Uint32s decodes into dst.
func (r *StateReader) Uint32s(dst []uint32) { readTable(r, dst, 4, get32[uint32]) }

// Int64s decodes into dst.
func (r *StateReader) Int64s(dst []int64) { readTable(r, dst, 8, get64[int64]) }

// Uint64s decodes into dst.
func (r *StateReader) Uint64s(dst []uint64) { readTable(r, dst, 8, get64[uint64]) }

// readTable decodes a table of size-byte elements into dst: a dense one
// through get, a masked one by clearing dst and storing each listed
// element at its bit, skipping zero bitmap words whole.
func readTable[T elem](r *StateReader, dst []T, size int, get func([]T, []byte)) {
	b, bm, masked, ok := r.table(len(dst), size)
	switch {
	case !ok:
	case masked:
		clear(dst)
		for at := 0; len(bm) > 0; at += 64 {
			var w uint64
			for w, bm = nextWord(bm); w != 0; w &= w - 1 {
				dst[at+bits.TrailingZeros64(w)] = T(getLE(b, size))
				b = b[size:]
			}
		}
	default:
		get(dst, b)
	}
}

// getLE reads the size-byte integer at the start of b.
func getLE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// The get loops advance b rather than index it, which lets the
// compiler drop most bounds checks.

func get8[T ~int8](s []T, b []byte) {
	for i := range s {
		s[i] = T(b[i])
	}
}

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
