package predictor

import (
	"reflect"
	"testing"

	"bebop/internal/util"
)

// distinct sets every element of s to a distinct value, most non-zero.
func distinct[T ~uint8 | ~uint16 | ~uint32 | ~int64 | ~uint64](s []T, seed int) {
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
// both RNGs advanced.
func filledDVTAGE() *DVTAGE {
	d := NewDVTAGE(DefaultDVTAGEConfig())
	alternate(d.lvtValid)
	distinct(d.lvtTags, 1)
	distinct(d.lvtVals, 2)
	alternate(d.lvtHas)
	distinct(d.lvtBtag, 3)
	distinct(d.vt0Strides, 4)
	distinct(d.vt0Conf, 5)
	for i := range d.comps {
		c := &d.comps[i]
		distinct(c.tags, 10*i+6)
		alternate(c.useful)
		distinct(c.strides, 10*i+7)
		distinct(c.conf, 10*i+8)
	}
	d.fpc.rng.Uint64()
	d.rng.Uint64()
	d.tick = 4321
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
// the predictor's geometry, or with a bool byte other than 0 or 1, is
// refused with an error and no panic.
func TestLoadStateRejectsImpossibleState(t *testing.T) {
	short := func(edit func(d *DVTAGE)) []byte {
		d := filledDVTAGE()
		edit(d)
		return d.AppendState(nil)
	}
	badBool := filledDVTAGE().AppendState(nil)
	badBool[8] = 2 // the first LVT valid byte, after the count
	for _, tc := range []struct {
		name  string
		state []byte
	}{
		{"LVT tags short", short(func(d *DVTAGE) { d.lvtTags = d.lvtTags[1:] })},
		{"LVT presence short", short(func(d *DVTAGE) { d.lvtHas = d.lvtHas[1:] })},
		{"LVT byte tags short", short(func(d *DVTAGE) { d.lvtBtag = d.lvtBtag[1:] })},
		{"VT0 confidences short", short(func(d *DVTAGE) { d.vt0Conf = d.vt0Conf[1:] })},
		{"component useful bits short", short(func(d *DVTAGE) { c := &d.comps[0]; c.useful = c.useful[1:] })},
		{"component confidences short", short(func(d *DVTAGE) { c := &d.comps[0]; c.conf = c.conf[1:] })},
		{"a component missing", short(func(d *DVTAGE) { d.comps = d.comps[1:] })},
		{"LVT valid byte other than 0 or 1", badBool},
	} {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Errorf("%s: LoadState panicked: %v", tc.name, rec)
				}
			}()
			if err := NewDVTAGE(DefaultDVTAGEConfig()).LoadState(util.NewStateReader(tc.state)); err == nil {
				t.Errorf("%s: loaded", tc.name)
			}
		}()
	}
}
