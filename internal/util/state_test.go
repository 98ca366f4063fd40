package util

import (
	"math"
	"reflect"
	"testing"
)

// TestStateRoundTrip: every Append function's output decodes back to
// its input, in order, with every byte consumed.
func TestStateRoundTrip(t *testing.T) {
	bools := []bool{true, false, true}
	i8s := []int8{-128, 0, 127}
	u8s := []uint8{0, 1, 255}
	u16s := []uint16{0, 0xBEEF, math.MaxUint16}
	u32s := []uint32{0, 0xDEADBEEF, math.MaxUint32}
	i64s := []int64{math.MinInt64, -1, math.MaxInt64}
	u64s := []uint64{0, 1 << 63, math.MaxUint64}
	var b []byte
	b = AppendBool(b, true)
	b = AppendUint8(b, 0xA5)
	b = AppendUint64(b, math.MaxUint64-1)
	b = AppendInt(b, -42)
	b = AppendString(b, "name")
	b = AppendLen(b, 2)
	b = AppendBools(b, bools)
	b = AppendInt8s(b, i8s)
	b = AppendUint8s(b, u8s)
	b = AppendUint16s(b, u16s)
	b = AppendUint32s(b, u32s)
	b = AppendInt64s(b, i64s)
	b = AppendUint64s(b, u64s)

	r := NewStateReader(b)
	if !r.Bool() || r.Uint8() != 0xA5 || r.Uint64() != math.MaxUint64-1 || r.Int() != -42 || string(r.Bytes()) != "name" {
		t.Fatal("scalars do not round-trip")
	}
	r.Len(2)
	gotBools, gotI8s, gotU8s := make([]bool, 3), make([]int8, 3), make([]uint8, 3)
	gotU16s, gotU32s, gotI64s, gotU64s := make([]uint16, 3), make([]uint32, 3), make([]int64, 3), make([]uint64, 3)
	r.Bools(gotBools)
	r.Int8s(gotI8s)
	r.Uint8s(gotU8s)
	r.Uint16s(gotU16s)
	r.Uint32s(gotU32s)
	r.Int64s(gotI64s)
	r.Uint64s(gotU64s)
	if err := r.Err(); err != nil || r.Left() != 0 {
		t.Fatalf("err %v, %d bytes left", err, r.Left())
	}
	for _, c := range [][2]any{{bools, gotBools}, {i8s, gotI8s}, {u8s, gotU8s}, {u16s, gotU16s}, {u32s, gotU32s}, {i64s, gotI64s}, {u64s, gotU64s}} {
		if !reflect.DeepEqual(c[0], c[1]) {
			t.Errorf("%v decoded as %v", c[0], c[1])
		}
	}
}

// TestTableForms: every table type round-trips at every occupancy and
// length, into a destination holding other values, in the form its
// contents pick: masked, its bitmap and its non-zero elements alone,
// when fewer than half its elements are non-zero, and dense otherwise.
func TestTableForms(t *testing.T) {
	val := func(i int) uint64 { return uint64(i+1)*0x9E3779B97F4A7C15 | 1 } // non-zero at every width
	checkForms(t, "bool", AppendBools, (*StateReader).Bools, 0, func(int) bool { return true })
	checkForms(t, "int8", AppendInt8s, (*StateReader).Int8s, 1, func(i int) int8 { return int8(val(i)) })
	checkForms(t, "uint8", AppendUint8s, (*StateReader).Uint8s, 1, func(i int) uint8 { return uint8(val(i)) })
	checkForms(t, "uint16", AppendUint16s, (*StateReader).Uint16s, 2, func(i int) uint16 { return uint16(val(i)) })
	checkForms(t, "uint32", AppendUint32s, (*StateReader).Uint32s, 4, func(i int) uint32 { return uint32(val(i)) })
	checkForms(t, "int64", AppendInt64s, (*StateReader).Int64s, 8, func(i int) int64 { return -int64(val(i) >> 1) })
	checkForms(t, "uint64", AppendUint64s, (*StateReader).Uint64s, 8, val)
}

// checkForms round-trips tables of one type, size bytes per listed
// element (0 for bools, which list none), whose non-zero elements are
// nz(i).
func checkForms[T comparable](t *testing.T, name string, app func([]byte, []T) []byte, read func(*StateReader, []T), size int, nz func(i int) T) {
	t.Helper()
	var forms [2]int
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 8192} {
		for _, occ := range []struct {
			name string
			set  func(i int) bool
		}{
			{"empty", func(int) bool { return false }},
			{"one element", func(i int) bool { return i == n/2 }},
			{"sparse", func(i int) bool { return i%7 == 3 }},
			{"half", func(i int) bool { return i%2 == 0 }},
			{"full", func(int) bool { return true }},
		} {
			src, dst := make([]T, n), make([]T, n)
			set := 0
			for i := range src {
				dst[i] = nz(i + 1)
				if occ.set(i) {
					src[i] = nz(i)
					set++
				}
			}
			b := app([]byte{0xEE}, src)[1:]
			form, want := byte(formDense), 8+1+n*max(size, 1)
			if 2*set < n {
				form, want = formMasked, 8+1+(n+7)/8+set*size
			}
			forms[form]++
			if len(b) != want || b[8] != form {
				t.Errorf("%s, %d elements, %s: %d bytes, form %d; want %d bytes, form %d", name, n, occ.name, len(b), b[8], want, form)
				continue
			}
			r := NewStateReader(b)
			read(r, dst)
			if r.Err() != nil || r.Left() != 0 || !reflect.DeepEqual(src, dst) {
				t.Errorf("%s, %d elements, %s: error %v, %d bytes left, equal %v", name, n, occ.name, r.Err(), r.Left(), reflect.DeepEqual(src, dst))
			}
		}
	}
	if forms[formDense] == 0 || forms[formMasked] == 0 {
		t.Errorf("%s: %d dense and %d masked tables, want both forms", name, forms[formDense], forms[formMasked])
	}
}

// TestStateReaderRefuses: a table of another length, a bool byte other
// than 0 or 1, a table form other than dense or masked, a bitmap bit
// past the table, a bitmap whose elements are missing, a byte string
// longer than the input and a short input are errors.
func TestStateReaderRefuses(t *testing.T) {
	three := AppendUint64s(nil, []uint64{1, 2, 3})
	// Form 2, then a byte that would decode under either known form.
	unknownForm := append(AppendLen(nil, 1), 2, 0)
	// Three zero elements: masked, a one-byte bitmap and no elements.
	// Setting bit 3 and appending its element leaves the padding check
	// the only guard against a store past the table.
	padding := AppendUint64s(nil, make([]uint64, 3))
	padding[8+1] |= 1 << 3
	padding = AppendUint64(padding, 9)
	// One set bit of four, and its one element.
	missing := AppendUint16s(nil, []uint16{0, 0, 5, 0})
	missing[8+1] |= 1
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *StateReader)
	}{
		{"a table of another length", three, func(r *StateReader) { r.Uint64s(make([]uint64, 2)) }},
		{"a count of another length", three, func(r *StateReader) { r.Len(4) }},
		{"a short table", three[:len(three)-1], func(r *StateReader) { r.Uint64s(make([]uint64, 3)) }},
		{"a short scalar", []byte{1, 2}, func(r *StateReader) { r.Uint64() }},
		{"bool byte 2", []byte{2}, func(r *StateReader) { r.Bool() }},
		{"bool byte 2 in a dense table", AppendUint8s(nil, []uint8{1, 2}), func(r *StateReader) { r.Bools(make([]bool, 2)) }},
		{"an unknown table form", unknownForm, func(r *StateReader) { r.Uint8s(make([]uint8, 1)) }},
		{"an unknown bool table form", unknownForm, func(r *StateReader) { r.Bools(make([]bool, 1)) }},
		{"a bitmap bit past the table", padding, func(r *StateReader) { r.Uint64s(make([]uint64, 3)) }},
		{"a bool bitmap bit past the table", padding, func(r *StateReader) { r.Bools(make([]bool, 3)) }},
		{"fewer elements than set bits", missing, func(r *StateReader) { r.Uint16s(make([]uint16, 4)) }},
		{"a byte string past the input", AppendLen(nil, 1<<40), func(r *StateReader) { r.Bytes() }},
	} {
		r := NewStateReader(tc.data)
		if tc.read(r); r.Err() == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestStateReaderErrorSticks: after the first error, reads return zero
// and leave their destinations alone, though the bytes are there.
func TestStateReaderErrorSticks(t *testing.T) {
	r := NewStateReader(AppendUint64s(AppendLen(nil, 9), []uint64{5}))
	r.Len(1)
	first := r.Err()
	dst := []uint64{42}
	r.Uint64s(dst)
	if x := r.Uint64(); first == nil || r.Err() != first || dst[0] != 42 || x != 0 {
		t.Errorf("after %v: error %v, table %v, scalar %d", first, r.Err(), dst, x)
	}
}
