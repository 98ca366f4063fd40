package pipeline

import (
	"reflect"
	"testing"

	"bebop/internal/predictor"
	"bebop/internal/workload"
)

func h2pConfig() Config {
	cfg := DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig())))
	cfg.CollectH2P = true
	return cfg
}

// TestH2PAttributionMatchesTotals: summed per-PC counts plus dropped
// must equal the measured-window misprediction totals — attribution
// loses nothing, it only localizes.
func TestH2PAttributionMatchesTotals(t *testing.T) {
	prof, _ := workload.ProfileByName("gobmk") // branchy workload
	p := New(h2pConfig(), workload.New(prof, 30000))
	r := p.RunWarm(10000, 0)

	if r.H2P == nil {
		t.Fatal("CollectH2P set but Result.H2P is nil")
	}
	// The full tables, not Result's truncated lists: totals must
	// reconcile exactly.
	branches, values := p.h2pBr.topN(h2pTableSize), p.h2pVal.topN(h2pTableSize)
	var brSum, valSum uint64
	for _, e := range branches {
		brSum += e.Mispredicts
	}
	for _, e := range values {
		valSum += e.Mispredicts
	}
	if got := brSum + r.H2P.BranchPCsDropped; got != r.BrMispredicts {
		t.Errorf("branch attribution %d != BrMispredicts %d", got, r.BrMispredicts)
	}
	if got := valSum + r.H2P.ValuePCsDropped; got != r.ValueMispredicts {
		t.Errorf("value attribution %d != ValueMispredicts %d", got, r.ValueMispredicts)
	}
	if r.BrMispredicts > 0 && len(r.H2P.Branches) == 0 {
		t.Error("mispredicted branches exist but no H2P entries")
	}
	// Ranked: counts non-increasing, ties by ascending PC.
	for i := 1; i < len(branches); i++ {
		a, b := branches[i-1], branches[i]
		if a.Mispredicts < b.Mispredicts || (a.Mispredicts == b.Mispredicts && a.PC >= b.PC) {
			t.Fatalf("entries not ranked: %+v before %+v", a, b)
		}
	}
}

// TestH2PIsPureObserver: enabling attribution must not perturb any
// other field of Result (the bit-identity contract telemetry rides on).
func TestH2PIsPureObserver(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	base := New(h2pConfigWithout(), workload.New(prof, 20000)).RunWarm(5000, 0)

	withH2P := New(h2pConfig(), workload.New(prof, 20000)).RunWarm(5000, 0)
	if withH2P.H2P == nil {
		t.Fatal("Result.H2P nil with CollectH2P set")
	}
	withH2P.H2P = nil
	if base != withH2P {
		t.Fatalf("H2P collection perturbed the run:\nbase %+v\nh2p  %+v", base, withH2P)
	}
}

func h2pConfigWithout() Config {
	cfg := h2pConfig()
	cfg.CollectH2P = false
	return cfg
}

// TestH2PTopNTruncation: Result.H2P keeps at most the 16 worst PCs of
// each kind, the head of the full ranking.
func TestH2PTopNTruncation(t *testing.T) {
	prof, _ := workload.ProfileByName("gobmk")
	p := New(h2pConfig(), workload.New(prof, 30000))
	r := p.RunWarm(0, 0)
	branches := p.h2pBr.topN(h2pTableSize)
	if len(branches) <= 16 {
		t.Fatalf("only %d branch PCs mispredicted; the cap is untested", len(branches))
	}
	for _, c := range []struct {
		kind      string
		got, full []H2PEntry
	}{
		{"branch", r.H2P.Branches, branches},
		{"value", r.H2P.Values, p.h2pVal.topN(h2pTableSize)},
	} {
		want := c.full[:min(len(c.full), 16)]
		if !reflect.DeepEqual(c.got, want) {
			t.Fatalf("%s: Result.H2P holds %d entries, want the %d worst:\ngot  %v\nwant %v",
				c.kind, len(c.got), len(want), c.got, want)
		}
	}
}

// TestH2PPooledReset: a pooled processor recycled with CollectH2P off
// must report nil H2P; recycled with it on, fresh counts.
func TestH2PPooledReset(t *testing.T) {
	prof, _ := workload.ProfileByName("gobmk")
	p := New(h2pConfig(), workload.New(prof, 15000))
	r1 := p.RunWarm(0, 0)
	if r1.H2P == nil {
		t.Fatal("first run: H2P nil")
	}

	p.Release()
	p.Reset(h2pConfigWithout(), workload.New(prof, 15000))
	if r2 := p.RunWarm(0, 0); r2.H2P != nil {
		t.Fatal("reset without CollectH2P still reports H2P")
	}

	p.Release()
	p.Reset(h2pConfig(), workload.New(prof, 15000))
	r3 := p.RunWarm(0, 0)
	if r3.H2P == nil {
		t.Fatal("re-enabled run: H2P nil")
	}
	if len(r3.H2P.Branches) != len(r1.H2P.Branches) {
		t.Fatalf("pooled rerun differs: %d vs %d branch entries",
			len(r3.H2P.Branches), len(r1.H2P.Branches))
	}
	for i := range r3.H2P.Branches {
		if r3.H2P.Branches[i] != r1.H2P.Branches[i] {
			t.Fatalf("pooled rerun entry %d differs: %+v vs %+v",
				i, r3.H2P.Branches[i], r1.H2P.Branches[i])
		}
	}
}

func TestMergeH2P(t *testing.T) {
	a := &H2PResult{
		Branches:         []H2PEntry{{PC: 0x10, Mispredicts: 5}, {PC: 0x20, Mispredicts: 2}},
		BranchPCsDropped: 1,
	}
	b := &H2PResult{
		Branches:        []H2PEntry{{PC: 0x20, Mispredicts: 4}, {PC: 0x30, Mispredicts: 1}},
		Values:          []H2PEntry{{PC: 0x40, Mispredicts: 7}},
		ValuePCsDropped: 2,
	}
	got := MergeH2P(nil, a, 0)
	got = MergeH2P(got, b, 2)
	want := []H2PEntry{{PC: 0x20, Mispredicts: 6}, {PC: 0x10, Mispredicts: 5}}
	if len(got.Branches) != 2 || got.Branches[0] != want[0] || got.Branches[1] != want[1] {
		t.Fatalf("merged branches = %+v, want %+v", got.Branches, want)
	}
	if len(got.Values) != 1 || got.Values[0] != (H2PEntry{PC: 0x40, Mispredicts: 7}) {
		t.Fatalf("merged values = %+v", got.Values)
	}
	if got.BranchPCsDropped != 1 || got.ValuePCsDropped != 2 {
		t.Fatalf("dropped counts = %d/%d, want 1/2", got.BranchPCsDropped, got.ValuePCsDropped)
	}
	// Merging into nil must deep-copy, not alias.
	c := MergeH2P(nil, a, 0)
	c.Branches[0].Mispredicts = 999
	if a.Branches[0].Mispredicts == 999 {
		t.Fatal("MergeH2P(nil, src) aliased src's entries")
	}
}

func TestH2PTableSaturation(t *testing.T) {
	var tbl h2pTable
	for pc := uint64(1); pc <= h2pMaxUsed+100; pc++ {
		tbl.bump(pc)
	}
	if tbl.used != h2pMaxUsed {
		t.Fatalf("used = %d, want cap %d", tbl.used, h2pMaxUsed)
	}
	if tbl.dropped != 100 {
		t.Fatalf("dropped = %d, want 100", tbl.dropped)
	}
	// PC 0 must be representable despite being the empty-slot marker.
	tbl.clear()
	tbl.bump(0)
	tbl.bump(0)
	top := tbl.topN(4)
	if len(top) != 1 || top[0] != (H2PEntry{PC: 0, Mispredicts: 2}) {
		t.Fatalf("PC 0 mishandled: %+v", top)
	}
}
