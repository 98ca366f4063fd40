package cache

import (
	"fmt"

	"bebop/internal/util"
)

// Checkpoint state of the memory hierarchy (util's state encoding):
// contents, LRU state, open rows and prefetcher training. In-flight
// MSHRs and the DRAM bank and bus clocks are absent: Warm quiesces them,
// and checkpoints are taken and restored only before a processor's
// first detailed cycle. The miss and merge counters are absent too:
// they are zeroed where the measured window starts. Every table travels
// with its length, so LoadState refuses state of another geometry;
// after a refusal the hierarchy must be Reset before reuse.

// AppendState appends the level's lines and its LRU clock.
func (c *Cache) AppendState(b []byte) []byte {
	b = util.AppendUint64s(b, c.tags)
	b = util.AppendBools(b, c.valid)
	b = util.AppendUint64s(b, c.lastUse)
	return util.AppendUint64(b, c.clock)
}

// LoadState decodes what AppendState appended into the level.
func (c *Cache) LoadState(r *util.StateReader) error {
	r.Uint64s(c.tags)
	r.Bools(c.valid)
	r.Uint64s(c.lastUse)
	c.clock = r.Uint64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("cache: %s state: %w", c.name, err)
	}
	return nil
}

// AppendState appends the open rows.
func (m *Memory) AppendState(b []byte) []byte { return util.AppendUint64s(b, m.openRow) }

// LoadState decodes what AppendState appended into the DRAM model.
func (m *Memory) LoadState(r *util.StateReader) error {
	r.Uint64s(m.openRow)
	if err := r.Err(); err != nil {
		return fmt.Errorf("cache: memory state: %w", err)
	}
	return nil
}

// AppendState appends the prefetcher's training entries.
func (p *StridePrefetcher) AppendState(b []byte) []byte {
	b = util.AppendLen(b, len(p.entries))
	for i := range p.entries {
		e := &p.entries[i]
		b = util.AppendUint64(b, e.pc)
		b = util.AppendUint64(b, e.lastLine)
		b = util.AppendUint64(b, uint64(e.stride))
		b = util.AppendUint8(b, uint8(e.conf))
	}
	return b
}

// LoadState decodes what AppendState appended into the prefetcher.
func (p *StridePrefetcher) LoadState(r *util.StateReader) error {
	r.Len(len(p.entries))
	for i := range p.entries {
		p.entries[i] = strideEntry{pc: r.Uint64(), lastLine: r.Uint64(), stride: int64(r.Uint64()), conf: int8(r.Uint8())}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("cache: prefetcher state: %w", err)
	}
	return nil
}

// AppendState appends every level, the DRAM model and the prefetcher.
func (h *Hierarchy) AppendState(b []byte) []byte {
	b = h.L1I.AppendState(b)
	b = h.L1D.AppendState(b)
	b = h.L2.AppendState(b)
	b = h.Mem.AppendState(b)
	return h.Prefetch.AppendState(b)
}

// LoadState decodes what AppendState appended into the hierarchy.
func (h *Hierarchy) LoadState(r *util.StateReader) error {
	for _, load := range []func(*util.StateReader) error{
		h.L1I.LoadState, h.L1D.LoadState, h.L2.LoadState, h.Mem.LoadState, h.Prefetch.LoadState,
	} {
		if err := load(r); err != nil {
			return err
		}
	}
	return nil
}
