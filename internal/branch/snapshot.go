package branch

import (
	"fmt"
)

// This file holds the checkpoint forms of the branch substrate. Every
// snapshot struct has only exported plain-data fields so the aggregate
// pipeline checkpoint can be written by the side-file codec, and every
// Restore validates geometry: a checkpoint taken under one configuration
// must never be silently poured into tables of another shape.

// HistorySnapshot is the serializable form of a History: the raw
// direction vector and the path register. Folded registers are a pure
// function of the direction bits and are recomputed on restore.
type HistorySnapshot struct {
	Dir  [MaxHistoryBits / 64]uint64
	Path uint64
}

// Checkpoint captures the history in serializable form. (Snapshot, which
// returns a History value, is the in-run mispredict-recovery path; this
// is the cross-run checkpoint path.)
func (h *History) Checkpoint() HistorySnapshot {
	return HistorySnapshot{Dir: h.dir, Path: h.path}
}

// RestoreCheckpoint overwrites the history from a checkpoint and
// recomputes the folded registers from the restored bit vector.
func (h *History) RestoreCheckpoint(s HistorySnapshot) {
	h.dir = s.Dir
	h.path = s.Path
	if h.folds != nil {
		h.folds.recompute(h)
	}
}

// TAGECompSnapshot is the state of one tagged TAGE component.
type TAGECompSnapshot struct {
	Ctr    []int8
	Tag    []uint16
	Useful []uint8
}

// TAGESnapshot is the full serializable state of a TAGE predictor,
// including the allocation RNG position.
type TAGESnapshot struct {
	Base       []int8
	Comps      []TAGECompSnapshot
	UseAltOnNA int8
	Tick       int
	RNGState   uint64
}

// Snapshot deep-copies the predictor state.
func (t *TAGE) Snapshot() *TAGESnapshot {
	s := &TAGESnapshot{
		Base:       append([]int8(nil), t.base...),
		Comps:      make([]TAGECompSnapshot, len(t.comps)),
		UseAltOnNA: t.useAltOnNA,
		Tick:       t.tick,
		RNGState:   t.rng.State(),
	}
	for i := range t.comps {
		c := &t.comps[i]
		s.Comps[i] = TAGECompSnapshot{
			Ctr:    append([]int8(nil), c.ctr...),
			Tag:    append([]uint16(nil), c.tag...),
			Useful: append([]uint8(nil), c.useful...),
		}
	}
	return s
}

// Restore overwrites the predictor from a snapshot. It errors (leaving
// the predictor unchanged) when the snapshot geometry does not match.
func (t *TAGE) Restore(s *TAGESnapshot) error {
	if len(s.Base) != len(t.base) || len(s.Comps) != len(t.comps) {
		return fmt.Errorf("branch: TAGE snapshot geometry mismatch: %d base/%d comps vs %d/%d",
			len(s.Base), len(s.Comps), len(t.base), len(t.comps))
	}
	for i := range s.Comps {
		if len(s.Comps[i].Ctr) != len(t.comps[i].ctr) ||
			len(s.Comps[i].Tag) != len(t.comps[i].tag) ||
			len(s.Comps[i].Useful) != len(t.comps[i].useful) {
			return fmt.Errorf("branch: TAGE snapshot component %d size mismatch", i)
		}
	}
	copy(t.base, s.Base)
	for i := range t.comps {
		copy(t.comps[i].ctr, s.Comps[i].Ctr)
		copy(t.comps[i].tag, s.Comps[i].Tag)
		copy(t.comps[i].useful, s.Comps[i].Useful)
	}
	t.useAltOnNA = s.UseAltOnNA
	t.tick = s.Tick
	t.rng.SetState(s.RNGState)
	return nil
}

// BTBSnapshot is the serializable state of a BTB, entries flattened into
// parallel arrays (the entry struct itself is unexported).
type BTBSnapshot struct {
	Valid   []bool
	Tag     []uint64
	Target  []uint64
	LastUse []uint64
	Clock   uint64
}

// Snapshot deep-copies the BTB state.
func (b *BTB) Snapshot() *BTBSnapshot {
	s := &BTBSnapshot{
		Valid:   make([]bool, len(b.entries)),
		Tag:     make([]uint64, len(b.entries)),
		Target:  make([]uint64, len(b.entries)),
		LastUse: make([]uint64, len(b.entries)),
		Clock:   b.clock,
	}
	for i := range b.entries {
		e := &b.entries[i]
		s.Valid[i], s.Tag[i], s.Target[i], s.LastUse[i] = e.valid, e.tag, e.target, e.lastUse
	}
	return s
}

// Restore overwrites the BTB from a snapshot, validating entry count.
func (b *BTB) Restore(s *BTBSnapshot) error {
	if len(s.Valid) != len(b.entries) || len(s.Tag) != len(b.entries) ||
		len(s.Target) != len(b.entries) || len(s.LastUse) != len(b.entries) {
		return fmt.Errorf("branch: BTB snapshot has %d entries, table has %d",
			len(s.Valid), len(b.entries))
	}
	for i := range b.entries {
		b.entries[i] = btbEntry{valid: s.Valid[i], tag: s.Tag[i], target: s.Target[i], lastUse: s.LastUse[i]}
	}
	b.clock = s.Clock
	return nil
}

// RASSnapshot is the serializable state of a return address stack.
type RASSnapshot struct {
	Stack []uint64
	Top   int
	Depth int
}

// Snapshot copies the live RAS entries, the depth entries from the top
// down. Slots past the live depth are never read before a push
// overwrites them, so they are written as zero: the snapshot depends
// only on the live stack, not on what an earlier run left behind.
func (r *RAS) Snapshot() *RASSnapshot {
	s := &RASSnapshot{Stack: make([]uint64, len(r.stack)), Top: r.top, Depth: r.depth}
	for i, at := 0, r.top; i < r.depth; i++ {
		s.Stack[at] = r.stack[at]
		at = (at - 1 + len(r.stack)) % len(r.stack)
	}
	return s
}

// Restore overwrites the RAS from a snapshot, validating capacity and
// refusing a top or depth the stack could never hold.
func (r *RAS) Restore(s *RASSnapshot) error {
	n := len(r.stack)
	if len(s.Stack) != n {
		return fmt.Errorf("branch: RAS snapshot depth %d, stack sized %d", len(s.Stack), n)
	}
	if s.Top < 0 || s.Top >= max(n, 1) || s.Depth < 0 || s.Depth > n {
		return fmt.Errorf("branch: RAS snapshot top %d, depth %d outside a %d-entry stack", s.Top, s.Depth, n)
	}
	copy(r.stack, s.Stack)
	r.top, r.depth = s.Top, s.Depth
	return nil
}
