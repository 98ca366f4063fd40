package branch

import (
	"fmt"

	"bebop/internal/util"
)

// Checkpoint state of the branch substrate (util's state encoding).
// Every table travels with its length, so LoadState refuses state taken
// under another geometry; after a refusal the structure holds a mix of
// old and new entries and must be Reset before reuse.

// AppendState appends the predictor's tables, its counters and the
// allocation RNG position.
func (t *TAGE) AppendState(b []byte) []byte {
	b = util.AppendInt8s(b, t.base)
	b = util.AppendLen(b, len(t.comps))
	for i := range t.comps {
		c := &t.comps[i]
		b = util.AppendInt8s(b, c.ctr)
		b = util.AppendUint16s(b, c.tag)
		b = util.AppendUint8s(b, c.useful)
	}
	b = util.AppendUint8(b, uint8(t.useAltOnNA))
	b = util.AppendInt(b, t.tick)
	return util.AppendUint64(b, t.rng.State())
}

// LoadState decodes what AppendState appended into the predictor.
func (t *TAGE) LoadState(r *util.StateReader) error {
	r.Int8s(t.base)
	r.Len(len(t.comps))
	for i := range t.comps {
		c := &t.comps[i]
		r.Int8s(c.ctr)
		r.Uint16s(c.tag)
		r.Uint8s(c.useful)
	}
	t.useAltOnNA = int8(r.Uint8())
	t.tick = r.Int()
	t.rng.SetState(r.Uint64())
	if err := r.Err(); err != nil {
		return fmt.Errorf("branch: TAGE state: %w", err)
	}
	return nil
}

// AppendState appends the BTB's entries and its LRU clock.
func (b *BTB) AppendState(s []byte) []byte {
	s = util.AppendLen(s, len(b.entries))
	for i := range b.entries {
		e := &b.entries[i]
		s = util.AppendBool(s, e.valid)
		s = util.AppendUint64(s, e.tag)
		s = util.AppendUint64(s, e.target)
		s = util.AppendUint64(s, e.lastUse)
	}
	return util.AppendUint64(s, b.clock)
}

// LoadState decodes what AppendState appended into the BTB.
func (b *BTB) LoadState(r *util.StateReader) error {
	r.Len(len(b.entries))
	for i := range b.entries {
		b.entries[i] = btbEntry{valid: r.Bool(), tag: r.Uint64(), target: r.Uint64(), lastUse: r.Uint64()}
	}
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
	rd.Uint64s(r.stack)
	r.top, r.depth = rd.Int(), rd.Int()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("branch: RAS state: %w", err)
	}
	if n := len(r.stack); r.top < 0 || r.top >= max(n, 1) || r.depth < 0 || r.depth > n {
		return fmt.Errorf("branch: RAS state top %d, depth %d outside a %d-entry stack", r.top, r.depth, n)
	}
	return nil
}
