// Package cache implements the memory hierarchy substrate of Table I:
// 32KB 8-way L1I (1 cycle), 32KB 8-way L1D (4 cycles), a unified 16-way 1MB
// L2 (12 cycles) with a degree-8 stride prefetcher, and a DDR3-1600-like
// main memory model (75-cycle minimum, 185-cycle maximum load-to-use
// latency) with per-level MSHR-bounded miss handling. All caches use 64B
// lines and LRU replacement.
//
// The model is latency-oriented: a lookup returns the cycle at which the
// data is available, tracking in-flight misses so that two accesses to the
// same missing line merge into one MSHR, and bounding outstanding misses.
package cache

import "bebop/internal/util"

// LineSize is the cache line size in bytes for every level.
const LineSize = 64

// lineShift is log2(LineSize).
const lineShift = 6

// Config sizes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	Latency   int // hit latency in cycles
	MSHRs     int // max outstanding misses
}

// mshr is one in-flight miss record: the missing line and its fill
// completion cycle.
type mshr struct {
	line uint64
	done int64
}

// Cache is one level of set-associative cache with LRU replacement and
// MSHR-style miss tracking.
type Cache struct {
	name    string
	cfg     Config
	sets    int
	tags    []uint64
	valid   []bool
	lastUse []uint64
	clock   uint64

	// mshrs holds the in-flight misses. MSHR counts are small and bounded
	// (Config.MSHRs, 64 in Table I), so a dense slice scan beats a map on
	// every axis that matters here: the merge probe walks a few cache
	// lines, reaping compacts in place, and the MSHR-full stall reads the
	// tracked minimum instead of iterating. mshrMin caches the earliest
	// completion cycle so the per-access reap is an integer compare while
	// no miss has completed.
	//bebop:nosnap in-flight misses; Warm quiesces them and checkpoints need a processor that has run no detailed cycle, so they are empty
	mshrs []mshr
	//bebop:nosnap earliest completion in mshrs; Warm quiesces it and checkpoints need a processor that has run no detailed cycle, so it is zero
	mshrMin int64

	// Misses counts demand lookups that missed this level.
	//bebop:nosnap measurement counter; zeroed where the measured window starts, so no checkpoint carries it
	Misses uint64
	// MSHRMerges counts misses that merged into an already in-flight
	// MSHR instead of starting a new fill — the secondary-miss traffic
	// Misses alone leaves invisible.
	//bebop:nosnap measurement counter; zeroed where the measured window starts, so no checkpoint carries it
	MSHRMerges uint64
}

// NewCache builds a cache level.
func NewCache(name string, cfg Config) *Cache {
	lines := cfg.SizeBytes / LineSize
	sets := lines / cfg.Ways
	if !util.IsPowerOfTwo(sets) {
		panic("cache: set count must be a power of two: " + name)
	}
	return &Cache{
		name:    name,
		cfg:     cfg,
		sets:    sets,
		tags:    make([]uint64, lines),
		valid:   make([]bool, lines),
		lastUse: make([]uint64, lines),
		mshrs:   make([]mshr, 0, cfg.MSHRs+1),
	}
}

// Reset invalidates every line and clears MSHRs and statistics, reusing
// the tag/LRU arrays: a Reset cache behaves identically to a new one.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.tags[i] = 0
		c.lastUse[i] = 0
	}
	c.clock = 0
	c.mshrs = c.mshrs[:0]
	c.mshrMin = 0
	c.Misses, c.MSHRMerges = 0, 0
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

func (c *Cache) set(line uint64) int {
	return int(line & uint64(c.sets-1))
}

// probe looks for a line without modifying replacement state. The tag
// compare comes first: it almost always fails, and the valid-bit load —
// which disambiguates a zero tag from an empty way — is only paid on a
// match.
func (c *Cache) probe(line uint64) (way int, hit bool) {
	base := c.set(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == line && c.valid[base+w] {
			return base + w, true
		}
	}
	return -1, false
}

// touch updates LRU state for a hit way.
func (c *Cache) touch(way int) {
	c.clock++
	c.lastUse[way] = c.clock
}

// fill installs a line, evicting LRU.
func (c *Cache) fill(line uint64) {
	if _, hit := c.probe(line); hit {
		return
	}
	base := c.set(line) * c.cfg.Ways
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.lastUse[base+w] < c.lastUse[victim] {
			victim = base + w
		}
	}
	c.clock++
	c.tags[victim] = line
	c.valid[victim] = true
	c.lastUse[victim] = c.clock
}

// reapMSHRs drops completed miss records. While the earliest outstanding
// completion is still in the future the whole reap is one compare.
func (c *Cache) reapMSHRs(now int64) {
	if len(c.mshrs) == 0 || now < c.mshrMin {
		return
	}
	w := 0
	min := int64(1<<63 - 1)
	for _, m := range c.mshrs {
		if m.done <= now {
			continue
		}
		c.mshrs[w] = m
		w++
		if m.done < min {
			min = m.done
		}
	}
	c.mshrs = c.mshrs[:w]
	if w == 0 {
		min = 0
	}
	c.mshrMin = min
}

// mshrLookup finds the in-flight record for line, if any.
func (c *Cache) mshrLookup(line uint64) (int64, bool) {
	for i := range c.mshrs {
		if c.mshrs[i].line == line {
			return c.mshrs[i].done, true
		}
	}
	return 0, false
}

// mshrInsert records a new in-flight miss.
func (c *Cache) mshrInsert(line uint64, done int64) {
	c.mshrs = append(c.mshrs, mshr{line: line, done: done})
	if len(c.mshrs) == 1 || done < c.mshrMin {
		c.mshrMin = done
	}
}

// Hierarchy bundles L1I, L1D, unified L2 and the memory model.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	Mem          *Memory
	Prefetch     *StridePrefetcher
}

// HierarchyConfig collects per-level configs.
type HierarchyConfig struct {
	L1I, L1D, L2   Config
	Mem            MemConfig
	PrefetchDegree int
}

// DefaultHierarchyConfig reproduces Table I.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:            Config{SizeBytes: 32 << 10, Ways: 8, Latency: 1, MSHRs: 64},
		L1D:            Config{SizeBytes: 32 << 10, Ways: 8, Latency: 4, MSHRs: 64},
		L2:             Config{SizeBytes: 1 << 20, Ways: 16, Latency: 12, MSHRs: 64},
		Mem:            DefaultMemConfig(),
		PrefetchDegree: 8,
	}
}

// NewHierarchy builds the full memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:      NewCache("L1I", cfg.L1I),
		L1D:      NewCache("L1D", cfg.L1D),
		L2:       NewCache("L2", cfg.L2),
		Mem:      NewMemory(cfg.Mem),
		Prefetch: NewStridePrefetcher(cfg.PrefetchDegree),
	}
}

// Reset clears every level, the DRAM model and the prefetcher in place,
// reusing all allocations.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.Mem.Reset()
	h.Prefetch.Reset()
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

// ResetStats zeroes every level's miss and MSHR-merge counters, leaving
// contents and timing state alone; the processor calls it where the
// measured window starts.
func (h *Hierarchy) ResetStats() {
	h.L1I.Misses, h.L1I.MSHRMerges = 0, 0
	h.L1D.Misses, h.L1D.MSHRMerges = 0, 0
	h.L2.Misses, h.L2.MSHRMerges = 0, 0
}

// accessThrough performs an access at level c backed by lower, returning
// the cycle at which data is available. now is the access cycle.
func (h *Hierarchy) accessThrough(c *Cache, line uint64, now int64, lower func(int64) int64) int64 {
	c.reapMSHRs(now)
	if way, hit := c.probe(line); hit {
		c.touch(way)
		return now + int64(c.cfg.Latency)
	}
	c.Misses++
	// Merge into an in-flight MSHR if present.
	if done, ok := c.mshrLookup(line); ok {
		c.MSHRMerges++
		return done
	}
	// MSHR exhaustion: the access waits until the earliest outstanding
	// miss completes and frees an MSHR.
	start := now
	if len(c.mshrs) >= c.cfg.MSHRs && c.mshrMin > start {
		start = c.mshrMin
	}
	fillDone := lower(start + int64(c.cfg.Latency))
	c.mshrInsert(line, fillDone)
	c.fill(line)
	return fillDone
}

// ReadData performs a data read at address addr starting at cycle now and
// returns the data-available cycle. pc is the load's PC, used to train the
// L2 stride prefetcher.
func (h *Hierarchy) ReadData(pc, addr uint64, now int64) int64 {
	line := addr >> lineShift
	return h.accessThrough(h.L1D, line, now, func(t int64) int64 {
		return h.accessL2(pc, line, t)
	})
}

// WriteData performs a data write (write-allocate, write-back modelled as
// latency-free for retirement purposes beyond the lookup itself).
func (h *Hierarchy) WriteData(pc, addr uint64, now int64) int64 {
	return h.ReadData(pc, addr, now)
}

// ReadInst performs an instruction fetch for the block containing addr.
func (h *Hierarchy) ReadInst(addr uint64, now int64) int64 {
	line := addr >> lineShift
	return h.accessThrough(h.L1I, line, now, func(t int64) int64 {
		return h.accessL2(addr, line, t)
	})
}

func (h *Hierarchy) accessL2(pc, line uint64, now int64) int64 {
	done := h.accessThrough(h.L2, line, now, func(t int64) int64 {
		return h.Mem.Access(line, t)
	})
	// Train the stride prefetcher on the demand stream and install
	// prefetches into L2 (degree 8, Table I).
	for _, pline := range h.Prefetch.Observe(pc, line) {
		if _, hit := h.L2.probe(pline); !hit {
			h.L2.fill(pline)
		}
	}
	return done
}

// StridePrefetcher is a PC-indexed stride prefetcher (degree N) attached to
// the L2 demand stream.
type StridePrefetcher struct {
	degree  int
	entries [256]strideEntry
	// buf is the reusable prefetch-line buffer returned by Observe; the
	// caller must consume it before the next Observe call.
	//bebop:nosnap scratch output buffer, fully rewritten by every Observe; never live across a drained-checkpoint boundary
	buf []uint64
}

// strideEntry is one PC-indexed prefetcher training record.
type strideEntry struct {
	pc       uint64
	lastLine uint64
	stride   int64
	conf     int8
}

// NewStridePrefetcher builds a prefetcher with the given degree.
func NewStridePrefetcher(degree int) *StridePrefetcher {
	return &StridePrefetcher{degree: degree}
}

// Reset clears the prefetcher's training state in place.
func (p *StridePrefetcher) Reset() {
	for i := range p.entries {
		p.entries[i] = strideEntry{}
	}
}

// Observe trains on a demand access and returns the lines to prefetch.
// The returned slice aliases an internal buffer that is overwritten by the
// next Observe call; callers must not retain it.
func (p *StridePrefetcher) Observe(pc, line uint64) []uint64 {
	e := &p.entries[util.Mix64(pc)&0xFF]
	if e.pc != pc {
		e.pc, e.lastLine, e.stride, e.conf = pc, line, 0, 0
		return nil
	}
	stride := int64(line) - int64(e.lastLine)
	e.lastLine = line
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return nil
	}
	if e.conf < 2 {
		return nil
	}
	if p.buf == nil {
		p.buf = make([]uint64, 0, p.degree)
	}
	out := p.buf[:0]
	next := int64(line)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	p.buf = out
	return out
}
