package branch

import (
	"fmt"

	"bebop/internal/util"
)

// Checkpoint state of the branch substrate (util's state encoding).
// Every table travels with its length, so LoadState refuses state taken
// under another geometry; after a refusal the structure holds a mix of
// old and new entries and must be Reset before reuse.

// AppendState appends the direction bits and the path register: the
// HistorySnapshot, in util's state encoding.
func (h *History) AppendState(b []byte) []byte {
	b = util.AppendUint64s(b, h.dir[:])
	return util.AppendUint64(b, h.path)
}

// LoadState decodes what AppendState appended, as Restore would restore
// it: the folded registers are recomputed from the decoded bits.
func (h *History) LoadState(r *util.StateReader) error {
	r.Uint64s(h.dir[:])
	h.path = r.Uint64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("branch: history state: %w", err)
	}
	if h.folds != nil {
		h.folds.recompute(h)
	}
	return nil
}

// AppendState appends the tag and usefulness lanes, the update count
// and the allocation RNG position.
func (t *Tagged) AppendState(b []byte) []byte {
	b = util.AppendLen(b, len(t.comps))
	b = util.AppendUint32s(b, t.tag)
	b = util.AppendUint8s(b, t.useful)
	b = util.AppendInt(b, t.updates)
	return util.AppendUint64(b, t.rng.State())
}

// LoadState decodes what AppendState appended, refusing a usefulness
// counter wider than the core's.
func (t *Tagged) LoadState(r *util.StateReader) error {
	r.Len(len(t.comps))
	r.Uint32s(t.tag)
	r.Uint8s(t.useful)
	t.updates = r.Int()
	t.rng.SetState(r.Uint64())
	if err := r.Err(); err != nil {
		return err
	}
	top := t.usefulMax()
	for e, u := range t.useful {
		if u > top {
			return fmt.Errorf("entry %d's usefulness %d exceeds %d bits", e, u, t.usefulBits)
		}
	}
	return nil
}

// AppendState appends the predictor's base and direction counters,
// useAltOnNA and its tagged core.
func (t *TAGE) AppendState(b []byte) []byte {
	b = util.AppendInt8s(b, t.base)
	b = util.AppendInt8s(b, t.ctr)
	b = util.AppendUint8(b, uint8(t.useAltOnNA))
	return t.tagged.AppendState(b)
}

// LoadState decodes what AppendState appended into the predictor.
func (t *TAGE) LoadState(r *util.StateReader) error {
	r.Int8s(t.base)
	r.Int8s(t.ctr)
	t.useAltOnNA = int8(r.Uint8())
	if err := t.tagged.LoadState(r); err != nil {
		return fmt.Errorf("branch: TAGE state: %w", err)
	}
	return nil
}

// AppendState appends the BTB's entries and its LRU clock.
func (b *BTB) AppendState(s []byte) []byte {
	s = util.AppendBools(s, b.valid)
	s = util.AppendUint64s(s, b.tag)
	s = util.AppendUint64s(s, b.target)
	s = util.AppendUint64s(s, b.lastUse)
	return util.AppendUint64(s, b.clock)
}

// LoadState decodes what AppendState appended into the BTB.
func (b *BTB) LoadState(r *util.StateReader) error {
	r.Bools(b.valid)
	r.Uint64s(b.tag)
	r.Uint64s(b.target)
	r.Uint64s(b.lastUse)
	b.clock = r.Uint64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("branch: BTB state: %w", err)
	}
	return nil
}

// AppendState appends the stack, its top and its depth. Slots past the
// live depth are never read before a push overwrites them, so they are
// written as zero: the state depends only on the live stack, not on
// what an earlier run left behind.
func (r *RAS) AppendState(b []byte) []byte {
	n := len(r.stack)
	b = util.AppendLen(b, n)
	for i, addr := range r.stack {
		if (r.top-i+n)%n >= r.depth {
			addr = 0
		}
		b = util.AppendUint64(b, addr)
	}
	b = util.AppendInt(b, r.top)
	return util.AppendInt(b, r.depth)
}

// LoadState decodes what AppendState appended into the RAS, refusing a
// top or depth the stack could never hold.
func (r *RAS) LoadState(rd *util.StateReader) error {
	rd.Len(len(r.stack))
	for i := range r.stack {
		r.stack[i] = rd.Uint64()
	}
	r.top, r.depth = rd.Int(), rd.Int()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("branch: RAS state: %w", err)
	}
	if n := len(r.stack); r.top < 0 || r.top >= max(n, 1) || r.depth < 0 || r.depth > n {
		return fmt.Errorf("branch: RAS state top %d, depth %d outside a %d-entry stack", r.top, r.depth, n)
	}
	return nil
}
