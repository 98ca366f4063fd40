package predictor

import (
	"reflect"
	"strings"
	"testing"

	"bebop/internal/branch"
	"bebop/internal/util"
)

// distinct sets every element of s to a distinct value, most non-zero.
func distinct[T ~uint8 | ~uint16 | ~int64 | ~uint64](s []T, seed int) {
	for i := range s {
		s[i] = T(i*7 + seed + 1)
	}
}

// alternate sets every third element of s to false, the rest to true.
func alternate(s []bool) {
	for i := range s {
		s[i] = i%3 != 0
	}
}

// filledDVTAGE is a default-geometry D-VTAGE with every table filled and
// both RNGs advanced. Random blocks fill the tagged core (tags, update
// count, allocation RNG) through the predictor's own calls, and every
// third entry is marked useful; the predictor's lanes are then
// overwritten with distinct values.
func filledDVTAGE() *DVTAGE {
	d := NewDVTAGE(DefaultDVTAGEConfig())
	var h branch.History
	rng := util.NewRNG(0xF111)
	for i := 0; i < 20000; i++ {
		u := UpdateBlock{Lookup: d.Lookup(rng.Uint64()&0xFFFF0, &h)}
		u.Slots[0] = SlotUpdate{Used: true, Actual: rng.Uint64() & 3, WasPredicted: true}
		d.Update(&u)
		h.Push(rng.Bool(0.5), rng.Uint64())
	}
	for e := int32(0); e < int32(d.tagged.Entries()); e += 3 {
		d.tagged.TrainUseful(e, true)
	}
	alternate(d.lvtValid)
	distinct(d.lvtTags, 1)
	distinct(d.lvtVals, 2)
	alternate(d.lvtHas)
	distinct(d.lvtBtag, 3)
	distinct(d.vt0Strides, 4)
	distinct(d.vt0Conf, 5)
	distinct(d.strides, 7)
	distinct(d.conf, 8)
	d.fpc.rng.Uint64()
	return d
}

// TestStateRoundTrip: with every table filled, AppendState then
// LoadState into a fresh predictor reproduces the whole struct.
func TestStateRoundTrip(t *testing.T) {
	full, got := filledDVTAGE(), NewDVTAGE(DefaultDVTAGEConfig())
	r := util.NewStateReader(full.AppendState(nil))
	if err := got.LoadState(r); err != nil {
		t.Fatal(err)
	}
	if r.Left() != 0 {
		t.Fatalf("%d bytes left", r.Left())
	}
	if !reflect.DeepEqual(full, got) {
		t.Error("D-VTAGE does not round-trip")
	}
}

// TestLoadStateRejectsImpossibleState: state whose tables disagree with
// the predictor's geometry, with a bool byte other than 0 or 1, or with
// a usefulness counter above D-VTAGE's one bit, is refused with an
// error and no panic.
func TestLoadStateRejectsImpossibleState(t *testing.T) {
	short := func(edit func(d *DVTAGE)) []byte {
		d := filledDVTAGE()
		edit(d)
		return d.AppendState(nil)
	}
	// Two thirds of the LVT valid bits are set, so the table is dense:
	// its count, form byte 0, then one byte per entry.
	badBool := filledDVTAGE().AppendState(nil)
	if badBool[8] != 0 || badBool[9] != 0 {
		t.Fatalf("LVT valid table starts with form %d, first byte %d; want a dense table whose entry 0 is false", badBool[8], badBool[9])
	}
	badBool[9] = 2 // the first LVT valid byte, after the count and the form
	// The tagged core's state ends with its usefulness lane, the update
	// count and the RNG position. A third of the counters are 1, so the
	// lane is masked and its last byte is the last of them.
	badUseful := filledDVTAGE().AppendState(nil)
	useful := len(badUseful) - 16 - 1
	if badUseful[useful] != 1 {
		t.Fatalf("the last usefulness byte reads %d, want 1", badUseful[useful])
	}
	badUseful[useful] = 2
	fiveComps := DefaultDVTAGEConfig()
	fiveComps.HistLens = fiveComps.HistLens[:5]
	for _, tc := range []struct {
		name  string
		state []byte
		want  string // in the refusal; "" for any
	}{
		{"LVT tags short", short(func(d *DVTAGE) { d.lvtTags = d.lvtTags[1:] }), ""},
		{"LVT presence short", short(func(d *DVTAGE) { d.lvtHas = d.lvtHas[1:] }), ""},
		{"LVT byte tags short", short(func(d *DVTAGE) { d.lvtBtag = d.lvtBtag[1:] }), ""},
		{"VT0 confidences short", short(func(d *DVTAGE) { d.vt0Conf = d.vt0Conf[1:] }), ""},
		{"tagged strides short", short(func(d *DVTAGE) { d.strides = d.strides[1:] }), ""},
		{"tagged confidences short", short(func(d *DVTAGE) { d.conf = d.conf[1:] }), ""},
		{"a component missing", NewDVTAGE(fiveComps).AppendState(nil), ""},
		{"LVT valid byte other than 0 or 1", badBool, "bool byte 2"},
		{"usefulness byte 2", badUseful, "usefulness 2 exceeds"},
	} {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Errorf("%s: LoadState panicked: %v", tc.name, rec)
				}
			}()
			switch err := NewDVTAGE(DefaultDVTAGEConfig()).LoadState(util.NewStateReader(tc.state)); {
			case err == nil:
				t.Errorf("%s: loaded", tc.name)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s: refused with %q, want %q in it", tc.name, err, tc.want)
			}
		}()
	}
}
