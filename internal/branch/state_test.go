package branch

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bebop/internal/util"
)

// distinct sets every element of s to a distinct value, most non-zero.
func distinct[T ~int8 | ~uint8 | ~uint32 | ~uint64](s []T, seed int) {
	for i := range s {
		s[i] = T(i*7 + seed + 1)
	}
}

// stateComponent is what every component of the checkpoint implements.
type stateComponent interface {
	AppendState([]byte) []byte
	LoadState(*util.StateReader) error
}

// loadAll decodes b into c and requires every byte to be consumed.
func loadAll(c stateComponent, b []byte) error {
	r := util.NewStateReader(b)
	if err := c.LoadState(r); err != nil {
		return err
	}
	if r.Left() != 0 {
		return fmt.Errorf("%d bytes left", r.Left())
	}
	return nil
}

// TestStateRoundTrip: with every table filled, AppendState then
// LoadState into a fresh instance reproduces the whole struct.
func TestStateRoundTrip(t *testing.T) {
	tage := NewTAGE(DefaultTAGEConfig())
	distinct(tage.base, 1)
	distinct(tage.ctr, 2)
	distinct(tage.tagged.tag, 3)
	for e := range tage.tagged.useful {
		tage.tagged.useful[e] = uint8(e % 4) // 2-bit counters
	}
	tage.useAltOnNA, tage.tagged.updates = -5, 1234
	tage.tagged.rng.Uint64()

	btb := NewBTB(4096, 4)
	for i := range btb.valid {
		btb.valid[i] = i%3 != 0
	}
	distinct(btb.tag, 1)
	distinct(btb.target, 2)
	distinct(btb.lastUse, 3)
	btb.clock = 99

	ras := NewRAS(16)
	for i := range 20 { // wraps, so every slot is live
		ras.Push(uint64(0x1000 + i))
	}

	for _, tc := range []struct {
		name      string
		full, got stateComponent
	}{
		{"TAGE", tage, NewTAGE(DefaultTAGEConfig())},
		{"BTB", btb, NewBTB(4096, 4)},
		{"RAS", ras, NewRAS(16)},
	} {
		if err := loadAll(tc.got, tc.full.AppendState(nil)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(tc.full, tc.got) {
			t.Errorf("%s does not round-trip", tc.name)
		}
	}
}

// TestRASStateIgnoresDeadSlots: slots past the live depth are written as
// zero, so the state depends only on the live stack.
func TestRASStateIgnoresDeadSlots(t *testing.T) {
	used, fresh := NewRAS(8), NewRAS(8)
	for _, r := range []*RAS{used, fresh} {
		r.Push(1)
		r.Push(2)
	}
	used.Pop()
	used.Pop()
	used.Push(1)
	used.Push(2) // the live stack matches fresh; the slots past it need not
	used.stack[5] = 77
	if !bytes.Equal(used.AppendState(nil), fresh.AppendState(nil)) {
		t.Error("a dead slot's contents reached the state")
	}
}

// TestLoadStateRejectsImpossibleState: state of another geometry, a
// RAS position outside its stack, a bool byte other than 0 or 1, a
// usefulness counter wider than TAGE's 2 bits, a short encoding, are
// refused with an error and no panic.
func TestLoadStateRejectsImpossibleState(t *testing.T) {
	rasState := func(edit func(r *RAS)) []byte {
		r := NewRAS(16)
		r.Push(1)
		r.Push(2)
		edit(r)
		return r.AppendState(nil)
	}
	small := DefaultTAGEConfig()
	small.CompEntries /= 2
	btb := NewBTB(4096, 4).AppendState(nil)
	// Every entry valid makes the valid table dense: its count, form
	// byte 0, then one byte per entry.
	full := NewBTB(4096, 4)
	for i := range full.valid {
		full.valid[i] = true
	}
	btbBadBool := full.AppendState(nil)
	if btbBadBool[8] != 0 || btbBadBool[9] != 1 {
		t.Fatalf("BTB valid table of form %d, first byte %d; want a dense table whose entry 0 is valid", btbBadBool[8], btbBadBool[9])
	}
	btbBadBool[9] = 2 // the first entry's valid byte, after the entry count and the form
	wideUseful := NewTAGE(DefaultTAGEConfig())
	wideUseful.tagged.useful[7] = 4
	for _, tc := range []struct {
		name  string
		into  stateComponent
		state []byte
		want  string // in the refusal; "" for any
	}{
		{"RAS top past the stack", NewRAS(16), rasState(func(r *RAS) { r.top = len(r.stack) + 3 }), ""},
		{"RAS top negative", NewRAS(16), rasState(func(r *RAS) { r.top = -1 }), ""},
		{"RAS depth past the stack", NewRAS(16), rasState(func(r *RAS) { r.depth = len(r.stack) + 1 }), ""},
		{"RAS depth negative", NewRAS(16), rasState(func(r *RAS) { r.depth = -1 }), ""},
		{"RAS stack of another size", NewRAS(8), rasState(func(*RAS) {}), ""},
		{"TAGE tables of another size", NewTAGE(DefaultTAGEConfig()), NewTAGE(small).AppendState(nil), ""},
		{"TAGE usefulness counter above 2 bits", NewTAGE(DefaultTAGEConfig()), wideUseful.AppendState(nil), ""},
		{"BTB of another size", NewBTB(2048, 4), btb, ""},
		{"BTB valid byte other than 0 or 1", NewBTB(4096, 4), btbBadBool, "bool byte 2"},
		{"BTB truncated", NewBTB(4096, 4), btb[:len(btb)-1], ""},
	} {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Errorf("%s: LoadState panicked: %v", tc.name, rec)
				}
			}()
			switch err := tc.into.LoadState(util.NewStateReader(tc.state)); {
			case err == nil:
				t.Errorf("%s: loaded", tc.name)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s: refused with %q, want %q in it", tc.name, err, tc.want)
			}
		}()
	}
	if err := loadAll(NewRAS(16), rasState(func(*RAS) {})); err != nil {
		t.Fatalf("the unbroken RAS state does not load: %v", err)
	}
}

// TestSparseBTBStateIsSmall: a BTB holding 50 entries of 8,192, about
// as many as warming leaves in one, encodes each lane as its bitmap and
// its non-zero elements, not 8,192 elements per lane (204,840 bytes).
func TestSparseBTBStateIsSmall(t *testing.T) {
	btb, got := NewBTB(8192, 2), NewBTB(8192, 2)
	for i := range uint64(50) {
		btb.Insert(0x40_0000+i*0x1234, 0x50_0000+i*8)
	}
	valid := 0
	for _, v := range btb.valid {
		if v {
			valid++
		}
	}
	state := btb.AppendState(nil)
	t.Logf("%d valid entries: %d bytes", valid, len(state))
	if valid != 50 || len(state) >= 8<<10 {
		t.Errorf("a BTB with %d valid entries encodes in %d bytes, want 50 in under 8 KiB", valid, len(state))
	}
	if err := loadAll(got, state); err != nil || !reflect.DeepEqual(btb, got) {
		t.Errorf("the sparse BTB does not round-trip (%v)", err)
	}
}
