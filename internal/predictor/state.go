package predictor

import (
	"fmt"

	"bebop/internal/util"
)

// AppendState appends the D-VTAGE tables, the FPC RNG position and the
// tagged core (util's state encoding). The RNG positions are part of the
// state: every probabilistic confidence decision after a restore must
// replay exactly as it would have in the straight-through run.
func (d *DVTAGE) AppendState(b []byte) []byte {
	b = util.AppendBools(b, d.lvtValid)
	b = util.AppendUint16s(b, d.lvtTags)
	b = util.AppendUint64s(b, d.lvtVals)
	b = util.AppendBools(b, d.lvtHas)
	b = util.AppendUint8s(b, d.lvtBtag)
	b = util.AppendInt64s(b, d.vt0Strides)
	b = util.AppendUint8s(b, d.vt0Conf)
	b = util.AppendInt64s(b, d.strides)
	b = util.AppendUint8s(b, d.conf)
	b = util.AppendUint64(b, d.fpc.rng.State())
	return d.tagged.AppendState(b)
}

// LoadState decodes what AppendState appended into the predictor. Every
// table travels with its length, so state of another geometry is
// refused; a refusal leaves the tables partly overwritten.
func (d *DVTAGE) LoadState(r *util.StateReader) error {
	r.Bools(d.lvtValid)
	r.Uint16s(d.lvtTags)
	r.Uint64s(d.lvtVals)
	r.Bools(d.lvtHas)
	r.Uint8s(d.lvtBtag)
	r.Int64s(d.vt0Strides)
	r.Uint8s(d.vt0Conf)
	r.Int64s(d.strides)
	r.Uint8s(d.conf)
	d.fpc.rng.SetState(r.Uint64())
	if err := d.tagged.LoadState(r); err != nil {
		return fmt.Errorf("predictor: D-VTAGE state: %w", err)
	}
	return nil
}
