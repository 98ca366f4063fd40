package predictor

import (
	"testing"

	"bebop/internal/branch"
)

// smallVTAGE keeps tests fast.
func smallVTAGE() VTAGEConfig {
	cfg := DefaultVTAGEConfig()
	cfg.BaseEntries = 1024
	cfg.CompEntries = 256
	return cfg
}

func TestVTAGELearnsConstant(t *testing.T) {
	p := NewVTAGE(smallVTAGE())
	uc, used := trainInst(p, 0x400100, 400, 100, func(i int) uint64 { return 0xABCD }, nil)
	if used < 90 || uc != used {
		t.Fatalf("VTAGE constant: %d/%d used correct", uc, used)
	}
}

func TestVTAGELearnsControlFlowDependentValues(t *testing.T) {
	// Value alternates with a branch direction pattern: VTAGE indexes by
	// global history and must learn both contexts; a last-value predictor
	// cannot.
	p := NewVTAGE(smallVTAGE())
	gen := func(i int) uint64 {
		if i%2 == 0 {
			return 111
		}
		return 222
	}
	branches := func(i int, h *branch.History) {
		h.Push(i%2 == 0, 0x40)
	}
	uc, used := trainInst(p, 0x400100, 3000, 500, gen, branches)
	if used < 300 {
		t.Fatalf("VTAGE failed to learn history-dependent values: used %d/500", used)
	}
	if float64(uc)/float64(used) < 0.98 {
		t.Fatalf("VTAGE history predictions inaccurate: %d/%d", uc, used)
	}
}

func TestLVPCannotLearnAlternating(t *testing.T) {
	p := NewLastValue(1024, 1)
	gen := func(i int) uint64 {
		if i%2 == 0 {
			return 111
		}
		return 222
	}
	_, used := trainInst(p, 0x400100, 2000, 500, gen, nil)
	if used > 10 {
		t.Fatalf("LVP should not predict alternating values, used %d", used)
	}
}

func TestVTAGECannotLearnStride(t *testing.T) {
	// A long strided series has no recurring (PC, history) context value:
	// VTAGE wastes entries and stays unconfident (Section III-B).
	p := NewVTAGE(smallVTAGE())
	_, used := trainInst(p, 0x400100, 1500, 300, func(i int) uint64 { return uint64(i) * 8 }, nil)
	if used > 15 {
		t.Fatalf("VTAGE confidently predicted a stride series %d times", used)
	}
}

func TestVTAGEStorage(t *testing.T) {
	p := NewVTAGE(DefaultVTAGEConfig())
	// 8K base x (64+3) plus 6x1K tagged entries of (64 + tag + 3 + 1).
	want := 8192 * 67
	for i := 0; i < 6; i++ {
		want += 1024 * (64 + 13 + i + 3 + 1)
	}
	if got := p.StorageBits(); got != want {
		t.Fatalf("VTAGE storage = %d, want %d", got, want)
	}
}

func TestVTAGEPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a tag wider than 32 bits must panic")
		}
	}()
	cfg := smallVTAGE()
	cfg.TagBitsLo = 30 // the sixth component's tags would be 35 bits
	NewVTAGE(cfg)
}

func TestHybridCoversBothClasses(t *testing.T) {
	// The VTAGE+2d-Stride hybrid must confidently predict strided series
	// (via the stride side) AND history-dependent series (via VTAGE).
	h := NewVTAGE2dStride(smallVTAGE(), 1024)
	uc, used := trainInst(h, 0x400100, 500, 100, func(i int) uint64 { return uint64(i) * 24 }, nil)
	if used < 80 || uc != used {
		t.Fatalf("hybrid stride side failed: %d/%d", uc, used)
	}

	h2 := NewVTAGE2dStride(smallVTAGE(), 1024)
	gen := func(i int) uint64 {
		if i%2 == 0 {
			return 7
		}
		return 9
	}
	branches := func(i int, hh *branch.History) { hh.Push(i%2 == 0, 0x40) }
	uc2, used2 := trainInst(h2, 0x400200, 3000, 500, gen, branches)
	if used2 < 300 || float64(uc2)/float64(used2) < 0.97 {
		t.Fatalf("hybrid VTAGE side failed: %d/%d", uc2, used2)
	}
}

func TestHybridStorageIsSumOfParts(t *testing.T) {
	h := NewVTAGE2dStride(smallVTAGE(), 1024)
	if h.StorageBits() != h.V.StorageBits()+h.S.StorageBits() {
		t.Fatal("hybrid storage must be the sum of both components")
	}
}

func TestHybridRejectsRandom(t *testing.T) {
	rng := newTestRNG(3)
	h := NewVTAGE2dStride(smallVTAGE(), 1024)
	_, used := trainInst(h, 0x400100, 1000, 300, func(i int) uint64 { return rng.Uint64() }, nil)
	if used > 6 {
		t.Fatalf("hybrid confidently predicted random values %d times", used)
	}
}
