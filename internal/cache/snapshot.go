package cache

import "fmt"

// Checkpoint forms of the memory hierarchy. Snapshot structs carry only
// exported plain-data fields, which the side-file codec walks; Restore
// validates that the snapshot geometry matches the live tables before
// touching anything.

// CacheSnapshot is the serializable state of one cache level: contents
// and LRU state. In-flight MSHRs are absent: Warm quiesces them, and
// checkpoints are taken and restored only before a processor's first
// detailed cycle. The miss and merge counters are absent too: they are
// zeroed where the measured window starts, so no checkpoint carries them.
type CacheSnapshot struct {
	Tags    []uint64
	Valid   []bool
	LastUse []uint64
	Clock   uint64
}

// Snapshot deep-copies the cache state.
func (c *Cache) Snapshot() *CacheSnapshot {
	return &CacheSnapshot{
		Tags:    append([]uint64(nil), c.tags...),
		Valid:   append([]bool(nil), c.valid...),
		LastUse: append([]uint64(nil), c.lastUse...),
		Clock:   c.clock,
	}
}

// Restore overwrites the cache from a snapshot, validating line count.
func (c *Cache) Restore(s *CacheSnapshot) error {
	if len(s.Tags) != len(c.tags) || len(s.Valid) != len(c.valid) || len(s.LastUse) != len(c.lastUse) {
		return fmt.Errorf("cache: %s snapshot has %d lines, cache has %d", c.name, len(s.Tags), len(c.tags))
	}
	copy(c.tags, s.Tags)
	copy(c.valid, s.Valid)
	copy(c.lastUse, s.LastUse)
	c.clock = s.Clock
	return nil
}

// QuiesceTiming drops all in-flight timing state from the cache level:
// outstanding MSHRs are discarded as if their fills completed. Warming
// mode runs on a synthetic clock, so any MSHR it leaves behind would
// carry absolute cycle numbers meaningless to a detailed run restarting
// at cycle 0.
func (c *Cache) QuiesceTiming() {
	c.mshrs = c.mshrs[:0]
	c.mshrMin = 0
}

// MemorySnapshot is the serializable state of the DRAM model: the open
// rows. The bank and bus clocks are absent for the same reason as the
// MSHRs (see CacheSnapshot).
type MemorySnapshot struct {
	OpenRow []uint64
}

// Snapshot deep-copies the DRAM state.
func (m *Memory) Snapshot() *MemorySnapshot {
	return &MemorySnapshot{OpenRow: append([]uint64(nil), m.openRow...)}
}

// Restore overwrites the DRAM model from a snapshot, validating bank count.
func (m *Memory) Restore(s *MemorySnapshot) error {
	if len(s.OpenRow) != len(m.openRow) {
		return fmt.Errorf("cache: memory snapshot has %d banks, model has %d", len(s.OpenRow), len(m.openRow))
	}
	copy(m.openRow, s.OpenRow)
	return nil
}

// QuiesceTiming clears the bank/bus busy clocks (timing state) while
// keeping the open-row registers (locality state a warmed run should
// inherit).
func (m *Memory) QuiesceTiming() {
	for i := range m.bankFree {
		m.bankFree[i] = 0
	}
	m.busFree = 0
}

// PrefetcherSnapshot is the serializable training state of the stride
// prefetcher, entries flattened into parallel arrays.
type PrefetcherSnapshot struct {
	PC       []uint64
	LastLine []uint64
	Stride   []int64
	Conf     []int8
}

// Snapshot deep-copies the prefetcher training state.
func (p *StridePrefetcher) Snapshot() *PrefetcherSnapshot {
	n := len(p.entries)
	s := &PrefetcherSnapshot{
		PC:       make([]uint64, n),
		LastLine: make([]uint64, n),
		Stride:   make([]int64, n),
		Conf:     make([]int8, n),
	}
	for i := range p.entries {
		e := &p.entries[i]
		s.PC[i], s.LastLine[i], s.Stride[i], s.Conf[i] = e.pc, e.lastLine, e.stride, e.conf
	}
	return s
}

// Restore overwrites the prefetcher from a snapshot, which must hold one
// element per entry in every parallel array.
func (p *StridePrefetcher) Restore(s *PrefetcherSnapshot) error {
	n := len(p.entries)
	if len(s.PC) != n || len(s.LastLine) != n || len(s.Stride) != n || len(s.Conf) != n {
		return fmt.Errorf("cache: prefetcher snapshot has %d/%d/%d/%d entries, table has %d",
			len(s.PC), len(s.LastLine), len(s.Stride), len(s.Conf), n)
	}
	for i := range p.entries {
		p.entries[i] = strideEntry{pc: s.PC[i], lastLine: s.LastLine[i], stride: s.Stride[i], conf: s.Conf[i]}
	}
	return nil
}

// HierarchySnapshot bundles the whole memory system's state.
type HierarchySnapshot struct {
	L1I, L1D, L2 *CacheSnapshot
	Mem          *MemorySnapshot
	Prefetch     *PrefetcherSnapshot
}

// Snapshot deep-copies the hierarchy.
func (h *Hierarchy) Snapshot() *HierarchySnapshot {
	s := &HierarchySnapshot{
		L1I: h.L1I.Snapshot(),
		L1D: h.L1D.Snapshot(),
		L2:  h.L2.Snapshot(),
		Mem: h.Mem.Snapshot(),
	}
	if h.Prefetch != nil {
		s.Prefetch = h.Prefetch.Snapshot()
	}
	return s
}

// Restore overwrites the hierarchy from a snapshot. Levels are validated
// before any is modified, so a geometry mismatch leaves the hierarchy
// unchanged.
func (h *Hierarchy) Restore(s *HierarchySnapshot) error {
	if s.L1I == nil || s.L1D == nil || s.L2 == nil || s.Mem == nil {
		return fmt.Errorf("cache: hierarchy snapshot incomplete")
	}
	if len(s.L1I.Tags) != len(h.L1I.tags) || len(s.L1D.Tags) != len(h.L1D.tags) ||
		len(s.L2.Tags) != len(h.L2.tags) || len(s.Mem.OpenRow) != len(h.Mem.openRow) {
		return fmt.Errorf("cache: hierarchy snapshot geometry mismatch")
	}
	if err := h.L1I.Restore(s.L1I); err != nil {
		return err
	}
	if err := h.L1D.Restore(s.L1D); err != nil {
		return err
	}
	if err := h.L2.Restore(s.L2); err != nil {
		return err
	}
	if err := h.Mem.Restore(s.Mem); err != nil {
		return err
	}
	if h.Prefetch != nil && s.Prefetch != nil {
		if err := h.Prefetch.Restore(s.Prefetch); err != nil {
			return err
		}
	}
	return nil
}

// QuiesceTiming clears in-flight timing state (MSHRs, bank/bus clocks)
// at every level while keeping contents, LRU, open rows and prefetcher
// training — the state functional warming exists to build.
func (h *Hierarchy) QuiesceTiming() {
	h.L1I.QuiesceTiming()
	h.L1D.QuiesceTiming()
	h.L2.QuiesceTiming()
	h.Mem.QuiesceTiming()
}
