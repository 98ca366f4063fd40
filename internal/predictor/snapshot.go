package predictor

import "fmt"

// Checkpoint forms of the value predictors. Snapshot structs carry only
// exported plain-data fields, which the side-file codec walks; Restore
// validates the snapshot geometry against the live tables before
// touching anything.
// The FPC and allocation RNG positions are part of the state: every
// probabilistic confidence decision after a restore must replay exactly
// as it would have in the straight-through run.

// DVTAGECompSnapshot is the state of one tagged D-VTAGE component.
type DVTAGECompSnapshot struct {
	Tags    []uint32
	Useful  []bool
	Strides []int64
	Conf    []uint8
}

// DVTAGESnapshot is the full serializable state of a D-VTAGE predictor.
type DVTAGESnapshot struct {
	LVTValid []bool
	LVTTags  []uint16
	LVTVals  []uint64
	LVTHas   []bool
	LVTBtag  []uint8

	VT0Strides []int64
	VT0Conf    []uint8

	Comps []DVTAGECompSnapshot

	FPCRNGState   uint64
	AllocRNGState uint64
	Tick          int
}

// Snapshot deep-copies the predictor state.
func (d *DVTAGE) Snapshot() *DVTAGESnapshot {
	s := &DVTAGESnapshot{
		LVTValid:      append([]bool(nil), d.lvtValid...),
		LVTTags:       append([]uint16(nil), d.lvtTags...),
		LVTVals:       append([]uint64(nil), d.lvtVals...),
		LVTHas:        append([]bool(nil), d.lvtHas...),
		LVTBtag:       append([]uint8(nil), d.lvtBtag...),
		VT0Strides:    append([]int64(nil), d.vt0Strides...),
		VT0Conf:       append([]uint8(nil), d.vt0Conf...),
		Comps:         make([]DVTAGECompSnapshot, len(d.comps)),
		FPCRNGState:   d.fpc.rng.State(),
		AllocRNGState: d.rng.State(),
		Tick:          d.tick,
	}
	for i := range d.comps {
		c := &d.comps[i]
		s.Comps[i] = DVTAGECompSnapshot{
			Tags:    append([]uint32(nil), c.tags...),
			Useful:  append([]bool(nil), c.useful...),
			Strides: append([]int64(nil), c.strides...),
			Conf:    append([]uint8(nil), c.conf...),
		}
	}
	return s
}

// Restore overwrites the predictor from a snapshot. It errors (leaving
// the predictor unchanged) when the snapshot geometry does not match.
func (d *DVTAGE) Restore(s *DVTAGESnapshot) error {
	if len(s.LVTValid) != len(d.lvtValid) || len(s.LVTTags) != len(d.lvtTags) ||
		len(s.LVTVals) != len(d.lvtVals) || len(s.LVTHas) != len(d.lvtHas) ||
		len(s.LVTBtag) != len(d.lvtBtag) || len(s.VT0Strides) != len(d.vt0Strides) ||
		len(s.VT0Conf) != len(d.vt0Conf) || len(s.Comps) != len(d.comps) {
		return fmt.Errorf("predictor: D-VTAGE snapshot geometry mismatch: %d LVT/%d slots/%d comps vs %d/%d/%d",
			len(s.LVTValid), len(s.LVTVals), len(s.Comps), len(d.lvtValid), len(d.lvtVals), len(d.comps))
	}
	for i := range s.Comps {
		sc, c := &s.Comps[i], &d.comps[i]
		if len(sc.Tags) != len(c.tags) || len(sc.Useful) != len(c.useful) ||
			len(sc.Strides) != len(c.strides) || len(sc.Conf) != len(c.conf) {
			return fmt.Errorf("predictor: D-VTAGE snapshot component %d size mismatch", i)
		}
	}
	copy(d.lvtValid, s.LVTValid)
	copy(d.lvtTags, s.LVTTags)
	copy(d.lvtVals, s.LVTVals)
	copy(d.lvtHas, s.LVTHas)
	copy(d.lvtBtag, s.LVTBtag)
	copy(d.vt0Strides, s.VT0Strides)
	copy(d.vt0Conf, s.VT0Conf)
	for i := range d.comps {
		copy(d.comps[i].tags, s.Comps[i].Tags)
		copy(d.comps[i].useful, s.Comps[i].Useful)
		copy(d.comps[i].strides, s.Comps[i].Strides)
		copy(d.comps[i].conf, s.Comps[i].Conf)
	}
	d.fpc.rng.SetState(s.FPCRNGState)
	d.rng.SetState(s.AllocRNGState)
	d.tick = s.Tick
	return nil
}
