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

// TestStateReaderRefuses: a table of another length, a bool byte other
// than 0 or 1, a byte string longer than the input and a short input
// are errors.
func TestStateReaderRefuses(t *testing.T) {
	three := AppendUint64s(nil, []uint64{1, 2, 3})
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
		{"bool byte 2 in a table", AppendUint8s(nil, []uint8{1, 2}), func(r *StateReader) { r.Bools(make([]bool, 2)) }},
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
