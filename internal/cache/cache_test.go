package cache

import (
	"testing"

	"bebop/internal/util"
)

func newTestHierarchy() *Hierarchy {
	return NewHierarchy(DefaultHierarchyConfig())
}

func TestL1DHitLatency(t *testing.T) {
	h := newTestHierarchy()
	addr := uint64(0x1000)
	h.ReadData(0x400000, addr, 0) // miss, fills
	done := h.ReadData(0x400000, addr, 1000)
	if done != 1000+int64(h.L1D.cfg.Latency) {
		t.Fatalf("L1D hit latency = %d, want %d", done-1000, h.L1D.cfg.Latency)
	}
}

func TestColdMissGoesToMemory(t *testing.T) {
	h := newTestHierarchy()
	done := h.ReadData(0x400000, 0x123400, 0)
	min := int64(h.Mem.cfg.MinLatency)
	if done < min {
		t.Fatalf("cold miss completed in %d cycles, faster than DRAM minimum %d", done, min)
	}
	max := int64(h.L1D.cfg.Latency+h.L2.cfg.Latency+h.Mem.cfg.MaxLatency) + 8
	if done > max {
		t.Fatalf("cold miss took %d cycles, beyond the worst case %d", done, max)
	}
}

func TestL2HitAfterL1Evict(t *testing.T) {
	h := newTestHierarchy()
	target := uint64(0x40000)
	h.ReadData(0x400000, target, 0)
	// Evict from 32KB L1D by touching > 8 conflicting lines in its set
	// (L1D is 8-way; lines 4KB apart map to the same set).
	for i := 1; i <= 9; i++ {
		h.ReadData(0x400000, target+uint64(i)*32*1024, int64(i)*1000)
	}
	start := int64(1_000_000)
	done := h.ReadData(0x400000, target, start)
	lat := done - start
	if lat <= int64(h.L1D.cfg.Latency) {
		t.Fatalf("expected L1 miss after eviction, latency %d", lat)
	}
	if lat > int64(h.L1D.cfg.Latency+h.L2.cfg.Latency)+2 {
		t.Fatalf("expected an L2 hit, latency %d", lat)
	}
}

func TestMSHRMerging(t *testing.T) {
	h := newTestHierarchy()
	a := h.ReadData(0x400000, 0x777000, 0)
	b := h.ReadData(0x400000, 0x777008, 1) // same line, in flight
	if b > a {
		t.Fatalf("second access to an in-flight line must merge: %d > %d", b, a)
	}
}

// TestMSHRMergeCounted pins the MSHRMerges statistic: an access that
// misses while its line's fill is still in flight (the line was evicted
// by set conflicts in the meantime) must coalesce into the existing MSHR
// and be counted as a merge, not start a new fill.
func TestMSHRMergeCounted(t *testing.T) {
	h := newTestHierarchy()
	target := uint64(0x777000)
	a := h.ReadData(0x400000, target, 0)
	// Evict target from its 8-way L1D set (64 sets, so lines 4KB apart
	// conflict) while its fill is still outstanding.
	for i := 1; i <= 8; i++ {
		h.ReadData(0x400000, target+uint64(i)*4096, int64(i))
	}
	merged := h.ReadData(0x400000, target, 10)
	if h.L1D.MSHRMerges != 1 {
		t.Fatalf("L1D.MSHRMerges = %d, want 1", h.L1D.MSHRMerges)
	}
	if merged != a {
		t.Fatalf("merged access completes at %d, want the in-flight fill's %d", merged, a)
	}
	if h.L1D.Misses != 10 {
		t.Fatalf("L1D.Misses = %d, want 10 (merges count as misses)", h.L1D.Misses)
	}
	h.L1D.Reset()
	if h.L1D.MSHRMerges != 0 {
		t.Fatalf("Reset left MSHRMerges = %d", h.L1D.MSHRMerges)
	}
}

func TestMSHRBoundsOutstanding(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L1D.MSHRs = 4
	h := NewHierarchy(cfg)
	// Issue many distinct misses at the same cycle; with 4 MSHRs, later
	// ones must start later.
	var last int64
	for i := 0; i < 16; i++ {
		done := h.ReadData(0x400000, uint64(0x100000+i*64), 0)
		if done > last {
			last = done
		}
	}
	firstFew := h.ReadData(0x400000, 0x100000, 0) // now a hit
	_ = firstFew
	if last == 0 {
		t.Fatal("no misses recorded")
	}
}

func TestInstVsDataCachesIndependent(t *testing.T) {
	h := newTestHierarchy()
	h.ReadInst(0x400000, 0)
	line := uint64(0x400000) >> lineShift
	if _, hit := h.L1D.probe(line); hit {
		t.Fatal("instruction fetch filled the D-cache")
	}
	if _, hit := h.L1I.probe(line); !hit {
		t.Fatal("instruction fetch did not fill the I-cache")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := NewCache("test", Config{SizeBytes: 2 * 64, Ways: 2, Latency: 1, MSHRs: 4})
	// Two lines fill the single set; touching the first keeps it resident
	// when a third arrives.
	c.fill(1)
	c.fill(2)
	if w, hit := c.probe(1); !hit {
		t.Fatal("line 1 missing")
	} else {
		c.touch(w)
	}
	c.fill(3)
	if _, hit := c.probe(2); hit {
		t.Fatal("LRU line 2 should have been evicted")
	}
	if _, hit := c.probe(1); !hit {
		t.Fatal("MRU line 1 wrongly evicted")
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count must panic")
		}
	}()
	NewCache("bad", Config{SizeBytes: 3 * 64, Ways: 1, Latency: 1, MSHRs: 1})
}

func TestStridePrefetcherLearns(t *testing.T) {
	p := NewStridePrefetcher(8)
	pc := uint64(0x400100)
	var out []uint64
	for i := 0; i < 6; i++ {
		out = p.Observe(pc, uint64(100+i*2))
	}
	if len(out) != 8 {
		t.Fatalf("trained prefetcher issued %d prefetches, want 8", len(out))
	}
	if out[0] != 100+5*2+2 {
		t.Fatalf("first prefetch line %d, want next stride", out[0])
	}
}

func TestStridePrefetcherResetsOnStrideChange(t *testing.T) {
	p := NewStridePrefetcher(4)
	pc := uint64(0x400100)
	for i := 0; i < 6; i++ {
		p.Observe(pc, uint64(100+i*2))
	}
	if out := p.Observe(pc, 500); len(out) != 0 {
		t.Fatal("stride change must reset confidence")
	}
}

func TestStridePrefetcherIgnoresZeroStride(t *testing.T) {
	p := NewStridePrefetcher(4)
	pc := uint64(0x400100)
	for i := 0; i < 6; i++ {
		if out := p.Observe(pc, 100); len(out) != 0 {
			t.Fatal("zero stride must not prefetch")
		}
	}
}

func TestPrefetchInstallsIntoL2(t *testing.T) {
	h := newTestHierarchy()
	pc := uint64(0x400100)
	base := uint64(0x2000000)
	// Strided demand misses train the prefetcher.
	for i := 0; i < 8; i++ {
		h.ReadData(pc, base+uint64(i)*128, int64(i)*500)
	}
	next := base + 8*128
	if _, hit := h.L2.probe(next >> lineShift); !hit {
		t.Fatal("the next strided line was not prefetched into L2")
	}
	// Its demand access is therefore an L2 hit.
	start := int64(100000)
	done := h.ReadData(pc, next, start)
	if done-start > int64(h.L1D.cfg.Latency+h.L2.cfg.Latency)+2 {
		t.Fatalf("prefetched line still cost %d cycles", done-start)
	}
}

func TestMemoryPanicsOnBadGeometry(t *testing.T) {
	for _, edit := range []func(*MemConfig){
		func(c *MemConfig) { c.RowBytes = 6000 },
		func(c *MemConfig) { c.Banks = 12 },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a row size or bank count that is not a power of two must panic")
				}
			}()
			cfg := DefaultMemConfig()
			edit(&cfg)
			NewMemory(cfg)
		}()
	}
}

func TestMemoryRowBufferLocality(t *testing.T) {
	m := NewMemory(DefaultMemConfig())
	line := uint64(0x100000 >> 6)
	a := m.Access(line, 0)
	b := m.Access(line+1, a+1) // same row
	if b-(a+1) >= a-0 {
		t.Fatalf("row-buffer hit (%d) not faster than row miss (%d)", b-(a+1), a)
	}
}

func TestMemoryLatencyBounds(t *testing.T) {
	m := NewMemory(DefaultMemConfig())
	rng := util.NewRNG(3)
	for i := 0; i < 2000; i++ {
		now := int64(i * 3)
		done := m.Access(rng.Uint64()>>20, now)
		lat := done - now
		if lat < 0 || lat > int64(m.cfg.MaxLatency) {
			t.Fatalf("memory latency %d outside [0, %d]", lat, m.cfg.MaxLatency)
		}
	}
}

// TestMemoryBankConflictsSlow: accesses issued in the same cycle
// serialize on the banks and the shared bus, so each completes later
// than the one before it.
func TestMemoryBankConflictsSlow(t *testing.T) {
	m := NewMemory(DefaultMemConfig())
	var prev int64
	for i := 0; i < 4; i++ {
		done := m.Access(uint64(i)*(8<<10)*16>>6, 0)
		if done <= prev {
			t.Fatalf("access %d completes at cycle %d, not after the previous one's %d", i, done, prev)
		}
		prev = done
	}
}
