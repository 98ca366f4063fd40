package predictor

import (
	"testing"

	"bebop/internal/branch"
	"bebop/internal/util"
)

func smallDVTAGE(npred int) DVTAGEConfig {
	cfg := DefaultDVTAGEConfig()
	cfg.NPred = npred
	cfg.BaseEntries = 512
	cfg.TaggedEntries = 128
	return cfg
}

func TestDVTAGEInstLearnsStride(t *testing.T) {
	p := NewDVTAGEInst(smallDVTAGE(1))
	uc, used := trainInst(p, 0x400100, 500, 100, func(i int) uint64 { return uint64(i) * 16 }, nil)
	if used < 90 || uc != used {
		t.Fatalf("D-VTAGE stride: %d/%d", uc, used)
	}
}

func TestDVTAGEInstLearnsConstant(t *testing.T) {
	p := NewDVTAGEInst(smallDVTAGE(1))
	uc, used := trainInst(p, 0x400100, 500, 100, func(i int) uint64 { return 42 }, nil)
	if used < 90 || uc != used {
		t.Fatalf("D-VTAGE constant: %d/%d", uc, used)
	}
}

func TestDVTAGEInstLearnsControlFlowDependentStride(t *testing.T) {
	// The stride depends on the branch direction: +1 after taken, +100
	// after not-taken. Plain stride predictors fail; D-VTAGE's
	// history-indexed stride components capture it (Section III-C).
	p := NewDVTAGEInst(smallDVTAGE(1))
	cur := uint64(0)
	dir := false
	gen := func(i int) uint64 {
		if dir {
			cur += 1
		} else {
			cur += 100
		}
		return cur
	}
	branches := func(i int, h *branch.History) {
		dir = (i/3)%2 == 0 // direction phase of period 6
		h.Push(dir, 0x40)
	}
	uc, used := trainInst(p, 0x400100, 6000, 1000, gen, branches)
	if used < 400 {
		t.Fatalf("D-VTAGE failed control-flow dependent strides: used %d/1000", used)
	}
	if float64(uc)/float64(used) < 0.95 {
		t.Fatalf("D-VTAGE CF-stride inaccurate: %d/%d", uc, used)
	}
}

func TestTwoDeltaCannotLearnCFStride(t *testing.T) {
	p := NewTwoDeltaStride(1024, 1)
	cur := uint64(0)
	dir := false
	gen := func(i int) uint64 {
		if dir {
			cur += 1
		} else {
			cur += 100
		}
		return cur
	}
	branches := func(i int, h *branch.History) {
		dir = (i/3)%2 == 0
		h.Push(dir, 0x40)
	}
	uc, used := trainInst(p, 0x400100, 6000, 1000, gen, branches)
	// 2-delta can confidently predict the runs inside a phase but must
	// mispredict at every phase change; accuracy of used predictions
	// within long runs can be high, but coverage must be visibly below
	// D-VTAGE's. The weaker check: it cannot be both high-coverage and
	// near-perfect.
	if used > 900 && uc == used {
		t.Fatal("2-delta unexpectedly perfect on control-flow dependent strides")
	}
}

func TestDVTAGEPartialStrideOverflow(t *testing.T) {
	// Strides of 1000 do not fit an 8-bit field: the predictor must not
	// confidently predict them.
	cfg := smallDVTAGE(1)
	cfg.StrideBits = 8
	p := NewDVTAGEInst(cfg)
	_, used := trainInst(p, 0x400100, 600, 150, func(i int) uint64 { return uint64(i) * 1000 }, nil)
	if used > 10 {
		t.Fatalf("8-bit D-VTAGE confidently predicted stride-1000 %d times", used)
	}
	// Small strides still work.
	p2 := NewDVTAGEInst(cfg)
	uc, used2 := trainInst(p2, 0x400200, 600, 150, func(i int) uint64 { return uint64(i) * 3 }, nil)
	if used2 < 120 || uc != used2 {
		t.Fatalf("8-bit D-VTAGE failed small strides: %d/%d", uc, used2)
	}
}

func TestDVTAGENegativePartialStride(t *testing.T) {
	cfg := smallDVTAGE(1)
	cfg.StrideBits = 8
	p := NewDVTAGEInst(cfg)
	uc, used := trainInst(p, 0x400100, 600, 150, func(i int) uint64 { return uint64(1 << 40) }, nil)
	_ = uc
	_ = used
	p2 := NewDVTAGEInst(cfg)
	uc2, used2 := trainInst(p2, 0x400300, 600, 150, func(i int) uint64 { return uint64(1_000_000 - i*7) }, nil)
	if used2 < 120 || uc2 != used2 {
		t.Fatalf("8-bit D-VTAGE failed negative strides: %d/%d", uc2, used2)
	}
}

func TestDVTAGEBlockMultiSlot(t *testing.T) {
	// Block-organized: three slots of one block entry learn three
	// different strides via retire-time claiming and byte tags.
	d := NewDVTAGE(smallDVTAGE(6))
	var h branch.History
	blockPC := uint64(0x400100) &^ 15
	vals := [3]uint64{0, 0, 0}
	strides := [3]uint64{4, 8, 12}
	btags := [3]uint8{0, 5, 10}

	correctLate := 0
	for iter := 0; iter < 600; iter++ {
		bl := d.Lookup(blockPC, &h)
		var u UpdateBlock
		u.Lookup = bl
		for s := 0; s < 3; s++ {
			vals[s] += strides[s]
			pred, conf := d.PredictSlot(&bl, s, bl.Last[s], bl.LVTHit && bl.HasLast[s])
			wasOK := bl.LVTHit && bl.HasLast[s]
			if iter > 450 && conf && wasOK && pred == vals[s] {
				correctLate++
			}
			u.Slots[s] = SlotUpdate{
				Used: true, Actual: vals[s], Predicted: pred,
				WasPredicted: wasOK, ByteTag: btags[s],
			}
		}
		d.Update(&u)
	}
	if correctLate < 350 {
		t.Fatalf("block slots not learned: %d/450 late correct-and-confident", correctLate)
	}
}

func TestDVTAGEByteTagMonotoneRule(t *testing.T) {
	// Once slot 0 is tagged with byte 0 (instruction I1), an update from
	// an instruction at byte 3 (I2, a later entry point) must not steal
	// the slot: "a greater tag never replaces a lesser tag".
	d := NewDVTAGE(smallDVTAGE(2))
	var h branch.History
	blockPC := uint64(0x7700)

	// Establish slot 0 with byte tag 0.
	bl := d.Lookup(blockPC, &h)
	var u UpdateBlock
	u.Lookup = bl
	u.Slots[0] = SlotUpdate{Used: true, Actual: 100, ByteTag: 0}
	d.Update(&u)

	bl = d.Lookup(blockPC, &h)
	if !bl.LVTHit || bl.ByteTags[0] != 0 {
		t.Fatalf("slot 0 not established: hit=%v tag=%d", bl.LVTHit, bl.ByteTags[0])
	}

	// Update slot 0 with a greater byte tag: must be ignored.
	u = UpdateBlock{Lookup: bl}
	u.Slots[0] = SlotUpdate{Used: true, Actual: 999, ByteTag: 3}
	d.Update(&u)

	bl = d.Lookup(blockPC, &h)
	if bl.ByteTags[0] != 0 {
		t.Fatalf("greater tag replaced lesser: tag=%d", bl.ByteTags[0])
	}
	if bl.Last[0] == 999 {
		t.Fatal("value of a mismatched tag update must not overwrite the slot")
	}

	// A lesser (equal-or-smaller) tag may update.
	u = UpdateBlock{Lookup: bl}
	u.Slots[0] = SlotUpdate{Used: true, Actual: 555, ByteTag: 0}
	d.Update(&u)
	bl = d.Lookup(blockPC, &h)
	if bl.Last[0] != 555 {
		t.Fatalf("matching tag update rejected: last=%d", bl.Last[0])
	}
}

func TestDVTAGELVTTagAllocation(t *testing.T) {
	// Two blocks aliasing to different LVT tags: allocating the second
	// must reset the entry (no stale values).
	cfg := smallDVTAGE(1)
	d := NewDVTAGE(cfg)
	var h branch.History
	a := uint64(0x1000)
	bl := d.Lookup(a, &h)
	u := UpdateBlock{Lookup: bl}
	u.Slots[0] = SlotUpdate{Used: true, Actual: 1234, ByteTag: 0}
	d.Update(&u)
	bl = d.Lookup(a, &h)
	if !bl.LVTHit {
		t.Fatal("first block must hit after training")
	}
	// Find a block PC mapping to the same LVT index but different tag.
	var b uint64
	for cand := uint64(0x2000); ; cand += 16 {
		i1, t1 := d.lvtIndex(util.Mix64(a))
		i2, t2 := d.lvtIndex(util.Mix64(cand))
		if i1 == i2 && t1 != t2 {
			b = cand
			break
		}
	}
	blB := d.Lookup(b, &h)
	if blB.LVTHit {
		t.Fatal("different tag must miss")
	}
	uB := UpdateBlock{Lookup: blB}
	uB.Slots[0] = SlotUpdate{Used: true, Actual: 777, ByteTag: 2}
	d.Update(&uB)
	blB = d.Lookup(b, &h)
	if !blB.LVTHit || blB.Last[0] != 777 {
		t.Fatal("reallocated entry must carry the new block's value")
	}
}

func TestDVTAGEStorageAccountingFormula(t *testing.T) {
	cfg := DVTAGEConfig{
		NPred: 6, BaseEntries: 256, LVTTagBits: 5,
		TaggedEntries: 256, NumComps: 6,
		HistLens: []int{2, 4, 8, 16, 32, 64}, TagBitsLo: 13,
		StrideBits: 8, FPCProbs: DefaultFPCProbs(),
		SpecWinEntries: 32, SpecWinTagBits: 15, Seed: 1,
	}
	// Hand-computed: LVT 256*(5+6*68)=105,728; VT0 256*6*11=16,896;
	// tagged sum 6 comps 256 entries (tag 13..18 +1 +6*11);
	// window 32*(15+16+6*68)=14,048.
	want := 256*(5+6*68) + 256*6*11
	for i := 0; i < 6; i++ {
		want += 256 * (13 + i + 1 + 6*11)
	}
	want += 32 * (15 + 16 + 6*68)
	if got := cfg.StorageBits(); got != want {
		t.Fatalf("storage = %d, want %d", got, want)
	}
}

func TestDVTAGEConfidencePropagationOnAllocate(t *testing.T) {
	// After an allocation caused by one wrong slot, the correct slot's
	// confidence must be preserved in the new entry (Section III-D(b)).
	// Train two slots; then make slot 1 mispredict while slot 0 stays
	// correct: slot 0 must remain confidently predictable immediately.
	d := NewDVTAGE(smallDVTAGE(2))
	h := &branch.History{}
	blockPC := uint64(0x8800)
	v0, v1 := uint64(0), uint64(0)
	for i := 0; i < 400; i++ {
		bl := d.Lookup(blockPC, h)
		v0 += 4
		v1 += 8
		p0, _ := d.PredictSlot(&bl, 0, bl.Last[0], bl.LVTHit && bl.HasLast[0])
		p1, _ := d.PredictSlot(&bl, 1, bl.Last[1], bl.LVTHit && bl.HasLast[1])
		u := UpdateBlock{Lookup: bl}
		u.Slots[0] = SlotUpdate{Used: true, Actual: v0, Predicted: p0, WasPredicted: bl.LVTHit, ByteTag: 0}
		u.Slots[1] = SlotUpdate{Used: true, Actual: v1, Predicted: p1, WasPredicted: bl.LVTHit, ByteTag: 4}
		d.Update(&u)
		// History advances so tagged components participate.
		h.Push(i%2 == 0, 0x40)
	}
	// Break slot 1 once (forces allocation), keep slot 0 on stride.
	bl := d.Lookup(blockPC, h)
	p0, c0 := d.PredictSlot(&bl, 0, bl.Last[0], bl.LVTHit)
	if !c0 || p0 != v0+4 {
		t.Skipf("slot 0 not yet confident (conf warmup is probabilistic)")
	}
	u := UpdateBlock{Lookup: bl}
	u.Slots[0] = SlotUpdate{Used: true, Actual: v0 + 4, Predicted: p0, WasPredicted: true, ByteTag: 0}
	u.Slots[1] = SlotUpdate{Used: true, Actual: 999999, Predicted: bl.Last[1] + 8, WasPredicted: true, ByteTag: 4}
	v0 += 4
	d.Update(&u)
	// Slot 0 must still be confident right after the allocation.
	bl = d.Lookup(blockPC, h)
	_, c0b := d.PredictSlot(&bl, 0, bl.Last[0], bl.LVTHit)
	if !c0b {
		t.Fatal("confidence not propagated to the newly allocated entry")
	}
}

func TestDVTAGERejectsRandom(t *testing.T) {
	rng := util.NewRNG(5)
	p := NewDVTAGEInst(smallDVTAGE(1))
	_, used := trainInst(p, 0x400100, 1200, 400, func(i int) uint64 { return rng.Uint64() }, nil)
	if used > 8 {
		t.Fatalf("D-VTAGE confidently predicted random values %d times", used)
	}
}

func TestDVTAGEPanics(t *testing.T) {
	for _, f := range []func(){
		func() { cfg := smallDVTAGE(0); NewDVTAGE(cfg) },
		func() { cfg := smallDVTAGE(9); NewDVTAGE(cfg) },
		func() { cfg := smallDVTAGE(1); cfg.BaseEntries = 1000; NewDVTAGE(cfg) },
		func() { cfg := smallDVTAGE(1); cfg.HistLens = []int{2}; NewDVTAGE(cfg) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad config must panic")
				}
			}()
			f()
		}()
	}
}
