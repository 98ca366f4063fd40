package cache

import (
	"reflect"
	"strings"
	"testing"

	"bebop/internal/util"
)

// fillCache gives every line of c a distinct tag and LRU stamp, most
// of them valid. The //bebop:nosnap fields keep their reset values.
func fillCache(c *Cache, seed uint64) {
	for i := range c.tags {
		c.tags[i] = seed + uint64(i)*3
		c.valid[i] = i%5 != 0
		c.lastUse[i] = seed + uint64(i)*7
	}
	c.clock = seed + 1
}

// filledHierarchy is a Table I hierarchy with every table filled.
func filledHierarchy() *Hierarchy {
	h := NewHierarchy(DefaultHierarchyConfig())
	fillCache(h.L1I, 1)
	fillCache(h.L1D, 2)
	fillCache(h.L2, 3)
	for i := range h.Mem.openRow {
		h.Mem.openRow[i] = uint64(i * 11)
	}
	for i := range h.Prefetch.entries {
		h.Prefetch.entries[i] = strideEntry{pc: uint64(i + 1), lastLine: uint64(i * 13), stride: int64(i) - 100, conf: int8(i % 4)}
	}
	return h
}

// TestStateRoundTrip: with every table filled, AppendState then
// LoadState into a fresh hierarchy reproduces the whole struct.
func TestStateRoundTrip(t *testing.T) {
	full, got := filledHierarchy(), NewHierarchy(DefaultHierarchyConfig())
	r := util.NewStateReader(full.AppendState(nil))
	if err := got.LoadState(r); err != nil {
		t.Fatal(err)
	}
	if r.Left() != 0 {
		t.Fatalf("%d bytes left", r.Left())
	}
	if !reflect.DeepEqual(full, got) {
		t.Error("the hierarchy does not round-trip")
	}
}

// TestLoadStateRejectsImpossibleState: hierarchy state without the
// prefetcher's section, tables of another geometry, a bool byte other
// than 0 or 1, and trailing prefetcher entries are refused with an
// error and no panic.
func TestLoadStateRejectsImpossibleState(t *testing.T) {
	h := filledHierarchy()
	noPrefetcher := h.Mem.AppendState(h.L2.AppendState(h.L1D.AppendState(h.L1I.AppendState(nil))))
	small := DefaultHierarchyConfig()
	small.L2.SizeBytes /= 2
	// L1I's tags and valid bits are mostly non-zero, so both tables are
	// dense: a count, form byte 0, then the elements.
	badValid := h.AppendState(nil)
	valid := 8 + 1 + 8*len(h.L1I.tags) + 8 + 1 // L1I's first valid byte: past its tags and the valid count and form
	if badValid[valid-1] != 0 || badValid[valid] != 0 {
		t.Fatalf("L1I's valid table has form %d, first byte %d; want a dense table whose line 0 is invalid", badValid[valid-1], badValid[valid])
	}
	badValid[valid] = 2
	shortPrefetcher := util.AppendLen(noPrefetcher, len(h.Prefetch.entries)-1)
	for range len(h.Prefetch.entries) - 1 {
		shortPrefetcher = append(shortPrefetcher, make([]byte, 8+8+8+1)...)
	}
	for _, tc := range []struct {
		name  string
		state []byte
		want  string // in the refusal; "" for any
	}{
		{"no prefetcher", noPrefetcher, ""},
		{"prefetcher entries short", shortPrefetcher, ""},
		{"L2 of another size", NewHierarchy(small).AppendState(nil), ""},
		{"valid byte other than 0 or 1", badValid, "L1I state: bool byte 2"},
	} {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Errorf("%s: LoadState panicked: %v", tc.name, rec)
				}
			}()
			switch err := NewHierarchy(DefaultHierarchyConfig()).LoadState(util.NewStateReader(tc.state)); {
			case err == nil:
				t.Errorf("%s: loaded", tc.name)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s: refused with %q, want %q in it", tc.name, err, tc.want)
			}
		}()
	}
}
