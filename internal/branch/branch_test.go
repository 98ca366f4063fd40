package branch

import (
	"testing"
	"testing/quick"

	"bebop/internal/util"
)

func TestHistoryPushShifts(t *testing.T) {
	var h History
	h.Push(true, 0x40)
	h.Push(false, 0)
	h.Push(true, 0x80)
	// Most recent in bit 0: taken, not-taken, taken -> 0b101.
	if got := h.Bits(3); got != 0b101 {
		t.Fatalf("Bits(3) = %b, want 101", got)
	}
}

func TestHistoryLongShift(t *testing.T) {
	var h History
	// Push a single taken then 64 not-taken: the taken bit must move into
	// the second word.
	h.Push(true, 0x4)
	for i := 0; i < 64; i++ {
		h.Push(false, 0)
	}
	if h.dir[1]&1 != 1 {
		t.Fatal("history bit did not carry into the second word")
	}
	if h.Bits(64) != 0 {
		t.Fatal("low word should be all not-taken")
	}
}

func TestHistoryFoldWidth(t *testing.T) {
	f := func(pushes []bool, n, w uint8) bool {
		var h History
		for _, tk := range pushes {
			h.Push(tk, 0x40)
		}
		nn := int(n%200) + 1
		ww := int(w%14) + 1
		return h.Fold(nn, ww) < uint64(1)<<ww
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryFoldSensitivity(t *testing.T) {
	var a, b History
	a.Push(true, 0x40)
	b.Push(false, 0)
	if a.Fold(8, 8) == b.Fold(8, 8) {
		t.Fatal("fold identical for different histories (possible, but at width 8 it indicates a fold bug)")
	}
}

func TestHistorySnapshotRestore(t *testing.T) {
	var h History
	h.Push(true, 0x44)
	snap := h.Snapshot()
	h.Push(false, 0)
	h.Push(true, 0x88)
	h.Restore(snap)
	if h.Bits(1) != 1 {
		t.Fatal("restore did not recover the snapshot")
	}
	if h.Path() != snap.Path {
		t.Fatal("path history not restored")
	}
}

func TestHistoryPathOnlyTaken(t *testing.T) {
	var h History
	p0 := h.Path()
	h.Push(false, 0xFFFF)
	if h.Path() != p0 {
		t.Fatal("not-taken branch must not update path history")
	}
	h.Push(true, 0xFFFF)
	if h.Path() == p0 {
		t.Fatal("taken branch must update path history")
	}
}

// alternatingStream trains TAGE on a strongly biased branch.
func TestTAGELearnsBiasedBranch(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var h History
	pc := uint64(0x400100)
	misses := 0
	for i := 0; i < 2000; i++ {
		p := tg.Predict(pc, &h)
		taken := true
		if p.Taken != taken {
			misses++
		}
		tg.Update(pc, &h, &p, taken)
		h.Push(taken, pc+2)
	}
	// After warmup the always-taken branch must be near-perfect.
	if misses > 30 {
		t.Fatalf("TAGE missed %d/2000 of an always-taken branch", misses)
	}
}

func TestTAGELearnsPeriodicPattern(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var h History
	pc := uint64(0x400200)
	lateMisses := 0
	for i := 0; i < 20000; i++ {
		taken := i%5 == 0 // T N N N N pattern, learnable from history
		p := tg.Predict(pc, &h)
		if i > 15000 && p.Taken != taken {
			lateMisses++
		}
		tg.Update(pc, &h, &p, taken)
		h.Push(taken, pc+2)
	}
	if lateMisses > 500 {
		t.Fatalf("TAGE failed to learn a period-5 pattern: %d/5000 late misses", lateMisses)
	}
}

func TestTAGERandomBranchMispredicts(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var h History
	rng := util.NewRNG(5)
	pc := uint64(0x400300)
	misses := 0
	const n = 8000
	for i := 0; i < n; i++ {
		taken := rng.Bool(0.5)
		p := tg.Predict(pc, &h)
		if p.Taken != taken {
			misses++
		}
		tg.Update(pc, &h, &p, taken)
		h.Push(taken, pc+2)
	}
	if float64(misses)/n < 0.3 {
		t.Fatalf("TAGE 'predicted' a random branch: %d/%d misses", misses, n)
	}
}

func TestTAGEStorageBudget(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	kb := float64(tg.StorageBits()) / 8 / 1024
	// Table I: ~32KB for the conditional predictor.
	if kb < 10 || kb > 48 {
		t.Fatalf("TAGE storage %v KB out of the Table I range", kb)
	}
}

func TestTAGEPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two table size must panic")
		}
	}()
	cfg := DefaultTAGEConfig()
	cfg.BaseEntries = 1000
	NewTAGE(cfg)
}

func TestBTBHitAfterInsert(t *testing.T) {
	b := NewBTB(1024, 2)
	b.Insert(0x1000, 0x2000)
	tgt, hit := b.Lookup(0x1000)
	if !hit || tgt != 0x2000 {
		t.Fatalf("lookup after insert: hit=%v tgt=%#x", hit, tgt)
	}
}

func TestBTBMissOnCold(t *testing.T) {
	b := NewBTB(1024, 2)
	if _, hit := b.Lookup(0x1234); hit {
		t.Fatal("cold BTB must miss")
	}
}

func TestBTBUpdateTarget(t *testing.T) {
	b := NewBTB(1024, 2)
	b.Insert(0x1000, 0x2000)
	b.Insert(0x1000, 0x3000)
	tgt, hit := b.Lookup(0x1000)
	if !hit || tgt != 0x3000 {
		t.Fatalf("target not updated: %#x", tgt)
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	// 2 ways: three conflicting PCs evict the least recently used.
	b := NewBTB(2, 2) // single set
	b.Insert(0x10, 0xA)
	b.Insert(0x20, 0xB)
	b.Lookup(0x10) // touch 0x10 so 0x20 is LRU
	b.Insert(0x30, 0xC)
	if _, hit := b.Lookup(0x20); hit {
		t.Fatal("LRU way not evicted")
	}
	if _, hit := b.Lookup(0x10); !hit {
		t.Fatal("MRU way wrongly evicted")
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	r.Push(0x200)
	if a, ok := r.Pop(); !ok || a != 0x200 {
		t.Fatalf("pop = %#x, %v", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 0x100 {
		t.Fatalf("pop = %#x, %v", a, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty RAS must report not-ok")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites oldest
	if a, _ := r.Pop(); a != 3 {
		t.Fatalf("top = %d", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Fatalf("second = %d", a)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("entry 1 must have been overwritten")
	}
}

func TestRASDepth(t *testing.T) {
	r := NewRAS(8)
	if r.depth != 0 {
		t.Fatal("fresh RAS depth != 0")
	}
	r.Push(1)
	r.Push(2)
	if r.depth != 2 {
		t.Fatalf("depth = %d", r.depth)
	}
	r.Pop()
	if r.depth != 1 {
		t.Fatalf("depth = %d", r.depth)
	}
}

func TestTAGEDistinctPCsIndependent(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var h History
	// Train an always-taken branch; a different PC should not be biased
	// taken by it through the tagged components (the bimodal may alias,
	// so only check hysteresis exists).
	pcA := uint64(0x1000)
	for i := 0; i < 500; i++ {
		p := tg.Predict(pcA, &h)
		tg.Update(pcA, &h, &p, true)
		h.Push(true, pcA)
	}
	// No crash and the predictor still functions for a new PC.
	p := tg.Predict(0x2000, &h)
	tg.Update(0x2000, &h, &p, false)
}
