package bebop

import (
	"testing"

	"bebop/internal/branch"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/predictor"
	"bebop/internal/specwindow"
)

func testConfig(winSize int, pol specwindow.Policy) Config {
	return Config{
		Predictor: predictor.DVTAGEConfig{
			NPred: 6, BaseEntries: 256, LVTTagBits: 5,
			TaggedEntries: 128, NumComps: 6,
			HistLens: []int{2, 4, 8, 16, 32, 64}, TagBitsLo: 13,
			StrideBits: 64, FPCProbs: predictor.DefaultFPCProbs(), Seed: 0x77,
		},
		WindowSize:    winSize,
		WindowTagBits: 15,
		Policy:        pol,
	}
}

// mkBlock builds a fetched block of eligible µ-ops at the given byte
// boundaries, with the given sequence numbers and values.
func mkBlock(blockPC uint64, seq uint64, boundaries []uint8, vals []uint64) []*pipeline.UOp {
	uops := make([]*pipeline.UOp, len(boundaries))
	for i := range boundaries {
		uops[i] = &pipeline.UOp{
			Seq:      seq + uint64(i),
			PC:       blockPC + uint64(boundaries[i]),
			Boundary: boundaries[i],
			Dest:     isa.Reg(1 + i),
			Class:    isa.ClassALU,
			Value:    vals[i],
			Eligible: true,
			VPSlot:   -1,
		}
	}
	return uops
}

// driveBlock runs fetch+retire of one block instance through the VP.
func driveBlock(b *BlockVP, h *branch.History, blockPC, seq uint64, boundaries []uint8, vals []uint64) []*pipeline.UOp {
	uops := mkBlock(blockPC, seq, boundaries, vals)
	b.OnFetchBlock(blockPC, seq, h, uops)
	for _, u := range uops {
		b.OnRetire(u)
	}
	return uops
}

func TestBlockLearnsAndPredicts(t *testing.T) {
	b := New(testConfig(-1, specwindow.PolicyIdeal))
	var h branch.History
	blockPC := uint64(0x10000)
	bounds := []uint8{0, 5, 11}
	seq := uint64(1)
	var lastUops []*pipeline.UOp
	for i := 0; i < 500; i++ {
		vals := []uint64{uint64(i) * 4, uint64(i) * 8, 42}
		lastUops = driveBlock(b, &h, blockPC, seq, bounds, vals)
		seq += 8
		// A different block retires, forcing training of the first.
		driveBlock(b, &h, 0x20000, seq, []uint8{0}, []uint64{7})
		seq += 8
	}
	for i, u := range lastUops {
		if !u.Predicted {
			t.Fatalf("µ-op %d never attributed a prediction after 500 instances", i)
		}
		if !u.PredConfident {
			t.Fatalf("µ-op %d not confident after 500 instances", i)
		}
		if u.PredValue != u.Value {
			t.Fatalf("µ-op %d predicted %d, actual %d", i, u.PredValue, u.Value)
		}
	}
	s := b.Stats()
	if s.UsedCorrect == 0 || s.Used == 0 {
		t.Fatalf("no used predictions recorded: %+v", s)
	}
}

func TestAttributionByByteTags(t *testing.T) {
	// Train a block entered at byte 0 with two µ-ops (bytes 0 and 5).
	// Then fetch the same block entered at byte 5: the µ-op at byte 5
	// must receive the *second* slot's prediction (tag match), not the
	// first (Section II-B1 false sharing avoidance).
	b := New(testConfig(-1, specwindow.PolicyIdeal))
	var h branch.History
	blockPC := uint64(0x30000)
	seq := uint64(1)
	for i := 0; i < 400; i++ {
		driveBlock(b, &h, blockPC, seq, []uint8{0, 5}, []uint64{uint64(i) * 10, uint64(i) * 100})
		seq += 8
		driveBlock(b, &h, 0x40000, seq, []uint8{0}, []uint64{3})
		seq += 8
	}
	// Enter mid-block: only the byte-5 µ-op.
	uops := mkBlock(blockPC, seq, []uint8{5}, []uint64{0})
	b.OnFetchBlock(blockPC, seq, &h, uops)
	u := uops[0]
	if !u.Predicted {
		t.Fatal("mid-block entry got no prediction")
	}
	// The prediction must continue the byte-5 series (steps of 100), not
	// the byte-0 series.
	if u.PredValue%100 != 0 || u.PredValue == 0 {
		t.Fatalf("mid-block entry stole the wrong slot: predicted %d", u.PredValue)
	}
}

func TestNpredBoundsPredictions(t *testing.T) {
	// A block with more results than NPred: the extra µ-ops must stay
	// unpredicted (Section II-B2).
	cfg := testConfig(-1, specwindow.PolicyIdeal)
	cfg.Predictor.NPred = 2
	b := New(cfg)
	var h branch.History
	seq := uint64(1)
	bounds := []uint8{0, 4, 8, 12}
	var last []*pipeline.UOp
	for i := 0; i < 400; i++ {
		vals := []uint64{uint64(i), uint64(i) * 2, uint64(i) * 3, uint64(i) * 4}
		last = driveBlock(b, &h, 0x50000, seq, bounds, vals)
		seq += 8
		driveBlock(b, &h, 0x60000, seq, []uint8{0}, []uint64{3})
		seq += 8
	}
	predicted := 0
	for _, u := range last {
		if u.Predicted {
			predicted++
		}
	}
	if predicted != 2 {
		t.Fatalf("NPred=2 block predicted %d µ-ops, want exactly 2", predicted)
	}
}

func TestSpecWindowSuppliesInflightValues(t *testing.T) {
	// Back-to-back fetches of the same block without retirement: the
	// second fetch must chain off the first's predictions via the window.
	b := New(testConfig(32, specwindow.PolicyDnRDnR))
	var h branch.History
	blockPC := uint64(0x70000)
	seq := uint64(1)
	// Train with interleaved retirement first.
	for i := 0; i < 500; i++ {
		driveBlock(b, &h, blockPC, seq, []uint8{0}, []uint64{uint64(i) * 8})
		seq += 8
		driveBlock(b, &h, 0x80000, seq, []uint8{0}, []uint64{1})
		seq += 8
	}
	// Now fetch three instances in flight (no retirement).
	v := uint64(500 * 8)
	var all []*pipeline.UOp
	for k := 0; k < 3; k++ {
		uops := mkBlock(blockPC, seq, []uint8{0}, []uint64{v})
		b.OnFetchBlock(blockPC, seq, &h, uops)
		all = append(all, uops...)
		seq += 8
		v += 8
	}
	// Each in-flight instance must predict its own (incremented) value.
	for k, u := range all {
		if !u.Predicted || u.PredValue != uint64(500*8+k*8) {
			t.Fatalf("in-flight instance %d predicted %d (ok=%v), want %d",
				k, u.PredValue, u.Predicted, 500*8+k*8)
		}
	}
	if b.win.Hits == 0 {
		t.Fatal("speculative window never hit")
	}
}

func TestNoWindowMissesInflight(t *testing.T) {
	// Without a window, the second in-flight instance predicts from the
	// stale LVT and must be wrong (Fig. 7(b) None behaviour).
	b := New(testConfig(0, specwindow.PolicyDnRDnR))
	var h branch.History
	blockPC := uint64(0x90000)
	seq := uint64(1)
	for i := 0; i < 500; i++ {
		driveBlock(b, &h, blockPC, seq, []uint8{0}, []uint64{uint64(i) * 8})
		seq += 8
		driveBlock(b, &h, 0xA0000, seq, []uint8{0}, []uint64{1})
		seq += 8
	}
	u1 := mkBlock(blockPC, seq, []uint8{0}, []uint64{500 * 8})
	b.OnFetchBlock(blockPC, seq, &h, u1)
	seq += 8
	u2 := mkBlock(blockPC, seq, []uint8{0}, []uint64{501 * 8})
	b.OnFetchBlock(blockPC, seq, &h, u2)
	if u2[0].Predicted && u2[0].PredValue == 501*8 {
		t.Fatal("windowless predictor should not track in-flight instances")
	}
}

func TestFlushRollsBackWindow(t *testing.T) {
	b := New(testConfig(32, specwindow.PolicyDnRDnR))
	var h branch.History
	seq := uint64(100)
	uops := mkBlock(0xB0000, seq, []uint8{0, 4}, []uint64{5, 6})
	b.OnFetchBlock(0xB0000, seq, &h, uops)
	// Squash everything younger than seq 99 (i.e. the whole block).
	for i := len(uops) - 1; i >= 0; i-- {
		b.OnSquash(uops[i])
	}
	b.OnFlush(99, 0xC0000)
	if e := b.win.Lookup(0xB0000); e != nil {
		t.Fatal("window entry survived a flush that squashed its block")
	}
	if b.fifo.Len() != 0 {
		t.Fatal("update queue entry survived the flush")
	}
}

func policyFlushSetup(t *testing.T, pol specwindow.Policy) (*BlockVP, *branch.History, uint64, uint64) {
	t.Helper()
	b := New(testConfig(32, pol))
	h := &branch.History{}
	blockPC := uint64(0xD0000)
	seq := uint64(1)
	for i := 0; i < 600; i++ {
		driveBlock(b, h, blockPC, seq, []uint8{0, 4}, []uint64{uint64(i) * 2, uint64(i) * 4})
		seq += 8
		driveBlock(b, h, 0xE0000, seq, []uint8{0}, []uint64{9})
		seq += 8
	}
	return b, h, blockPC, seq
}

// fetchPartialAndFlush simulates: fetch block (2 µ-ops), retire the first,
// flush from it (value mispredict), leaving Bnew == Bflush.
func fetchPartialAndFlush(b *BlockVP, h *branch.History, blockPC, seq uint64, vals []uint64) *pipeline.UOp {
	uops := mkBlock(blockPC, seq, []uint8{0, 4}, vals)
	b.OnFetchBlock(blockPC, seq, h, uops)
	b.OnRetire(uops[0])
	b.OnSquash(uops[1])
	b.OnFlush(uops[0].Seq, blockPC)
	return uops[1]
}

func TestPolicyDnRRReusesPredictions(t *testing.T) {
	b, h, blockPC, seq := policyFlushSetup(t, specwindow.PolicyDnRR)
	vals := []uint64{600 * 2, 600 * 4}
	fetchPartialAndFlush(b, h, blockPC, seq, vals)
	// Refetch the same block: µ-op at byte 4 must reuse the surviving
	// prediction and it must remain usable.
	re := mkBlock(blockPC, seq+8, []uint8{4}, []uint64{600 * 4})
	before := b.dvt
	_ = before
	probesBefore := b.win.Probes
	b.OnFetchBlock(blockPC, seq+8, h, re)
	if b.win.Probes != probesBefore {
		t.Fatal("DnRR reuse must not re-access the predictor/window")
	}
	if !re[0].Predicted || !re[0].PredConfident {
		t.Fatalf("DnRR must reuse usable predictions: pred=%v conf=%v", re[0].Predicted, re[0].PredConfident)
	}
}

func TestPolicyDnRDnRForbidsUse(t *testing.T) {
	b, h, blockPC, seq := policyFlushSetup(t, specwindow.PolicyDnRDnR)
	fetchPartialAndFlush(b, h, blockPC, seq, []uint64{600 * 2, 600 * 4})
	re := mkBlock(blockPC, seq+8, []uint8{4}, []uint64{600 * 4})
	b.OnFetchBlock(blockPC, seq+8, h, re)
	if re[0].PredConfident {
		t.Fatal("DnRDnR must forbid using reused predictions")
	}
	if !re[0].Predicted {
		t.Fatal("DnRDnR still tracks the prediction for training")
	}
}

func TestPolicyRepredRepredicts(t *testing.T) {
	b, h, blockPC, seq := policyFlushSetup(t, specwindow.PolicyRepred)
	fetchPartialAndFlush(b, h, blockPC, seq, []uint64{600 * 2, 600 * 4})
	probesBefore := b.win.Probes
	re := mkBlock(blockPC, seq+8, []uint8{4}, []uint64{600 * 4})
	b.OnFetchBlock(blockPC, seq+8, h, re)
	if b.win.Probes == probesBefore {
		t.Fatal("Repred must re-access the predictor on refetch")
	}
}

func TestPolicyAppliesOnlyToSameBlock(t *testing.T) {
	b, h, blockPC, seq := policyFlushSetup(t, specwindow.PolicyDnRR)
	uops := mkBlock(blockPC, seq, []uint8{0, 4}, []uint64{1, 2})
	b.OnFetchBlock(blockPC, seq, h, uops)
	b.OnRetire(uops[0])
	b.OnSquash(uops[1])
	// Flush where the next block is different: no reuse.
	b.OnFlush(uops[0].Seq, 0xF0000)
	probes := b.win.Probes
	re := mkBlock(blockPC, seq+8, []uint8{4}, []uint64{2})
	b.OnFetchBlock(blockPC, seq+8, h, re)
	if b.win.Probes == probes {
		t.Fatal("reuse applied although the refetched block differs")
	}
}

func TestRetireClaimsFreeSlots(t *testing.T) {
	// First-ever fetch of a block: no byte tags exist, so µ-ops are
	// unattributed at fetch and claim slots at retire.
	b := New(testConfig(-1, specwindow.PolicyIdeal))
	var h branch.History
	uops := driveBlock(b, &h, 0x11000, 1, []uint8{2, 9}, []uint64{10, 20})
	for _, u := range uops {
		if u.Predicted {
			t.Fatal("cold block must not have predictions")
		}
	}
	// Force training, then refetch: byte tags must now exist.
	driveBlock(b, &h, 0x12000, 9, []uint8{0}, []uint64{1})
	re := mkBlock(0x11000, 17, []uint8{2, 9}, []uint64{10, 20})
	b.OnFetchBlock(0x11000, 17, &h, re)
	for i, u := range re {
		if u.VPSlot < 0 {
			t.Fatalf("µ-op %d not attributed after slot claiming", i)
		}
	}
}

func TestStorageIncludesWindow(t *testing.T) {
	with := New(testConfig(32, specwindow.PolicyDnRDnR)).StorageBits()
	without := New(testConfig(0, specwindow.PolicyDnRDnR)).StorageBits()
	if with <= without {
		t.Fatal("bounded window must add storage")
	}
	diff := with - without
	want := 32 * (15 + 16 + 6*(64+4))
	if diff != want {
		t.Fatalf("window storage %d bits, want %d", diff, want)
	}
}

func TestResetStats(t *testing.T) {
	b := New(testConfig(32, specwindow.PolicyDnRDnR))
	var h branch.History
	driveBlock(b, &h, 0x13000, 1, []uint8{0}, []uint64{5})
	b.ResetStats()
	s := b.Stats()
	if s.Eligible != 0 || s.SpecWindowProbes != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}
