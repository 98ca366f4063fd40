package core

import (
	"fmt"
	"reflect"
	"testing"

	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/workload"
)

// TestWarmSplitInvariant: functional warming does not depend on where
// checkpoints split it. For every profile under Baseline_6_60 and
// EOLE_4_60/Medium, warming s instructions in one call and warming them
// in pieces, with Snapshot and Restore into a Reset processor at each
// split, leave identical snapshots at s. Most splits fall inside a
// fetch block, where Warm has a block occurrence open.
func TestWarmSplitInvariant(t *testing.T) {
	const s = 20_000
	splitSets := [][]int64{{1, 4_999, 12_345}, {4_096, 8_192, 16_384}, {7, 10_001, 19_999}}
	profiles := workload.Profiles()
	if testing.Short() {
		profiles = profiles[:4] // the race detector makes each warming pass ~10x slower
	}
	for _, mk := range []ConfigFactory{Baseline(), EOLEBeBoP("Medium", MediumConfig())} {
		for _, prof := range profiles {
			t.Run(mk().Name+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				p := pipeline.New(mk(), workload.New(prof, s))
				if n := p.Warm(s); n != s {
					t.Fatalf("warmed %d of %d instructions", n, s)
				}
				want, err := p.Snapshot(s)
				if err != nil {
					t.Fatal(err)
				}
				for _, splits := range splitSets {
					got, err := warmInPieces(mk, workload.New(prof, s), append(splits, s))
					if err != nil {
						t.Fatalf("splits %v: %v", splits, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("splits %v: the state at %d differs from one continuous Warm", splits, s)
					}
				}
			})
		}
	}
}

// warmInPieces warms one processor over stream up to each of ends in
// turn; at every end but the last it snapshots, resets the processor
// and restores the snapshot before warming on. It returns the snapshot
// at the last end.
func warmInPieces(mk ConfigFactory, stream isa.Stream, ends []int64) (*pipeline.Checkpoint, error) {
	p := pipeline.New(mk(), stream)
	pos := int64(0)
	for i, end := range ends {
		if n := p.Warm(end - pos); n != end-pos {
			return nil, fmt.Errorf("warmed %d of %d instructions at %d", n, end-pos, pos)
		}
		pos = end
		ck, err := p.Snapshot(pos)
		if err != nil || i == len(ends)-1 {
			return ck, err
		}
		p.Reset(mk(), stream)
		if err := p.Restore(ck); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("no split ends")
}

// TestRestoreRejectsImpossibleState: a checkpoint whose parallel arrays
// disagree in length, whose positions lie outside their tables, or
// whose open fetch block warming could never have left, is refused by
// Restore with an error. Accepting it would panic later in the run, or
// keep the previous run's entries where the short array stops.
func TestRestoreRejectsImpossibleState(t *testing.T) {
	mk := EOLEBeBoP("Medium", MediumConfig())
	stream, err := sampleProfile(t, "gcc").Open(4000)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(mk(), stream)
	if n := p.Warm(4000); n != 4000 {
		t.Fatalf("warmed %d of 4000 instructions", n)
	}
	if ck, err := p.Snapshot(4000); err != nil || len(ck.WarmUOps) == 0 {
		t.Fatalf("the test needs an open block with µ-ops at instruction 4000 (err %v)", err)
	}
	for _, tc := range []struct {
		name string
		edit func(ck *pipeline.Checkpoint)
	}{
		{"RAS top past the stack", func(ck *pipeline.Checkpoint) { ck.RAS.Top = len(ck.RAS.Stack) + 3 }},
		{"RAS top negative", func(ck *pipeline.Checkpoint) { ck.RAS.Top = -1 }},
		{"RAS depth past the stack", func(ck *pipeline.Checkpoint) { ck.RAS.Depth = len(ck.RAS.Stack) + 1 }},
		{"RAS depth negative", func(ck *pipeline.Checkpoint) { ck.RAS.Depth = -1 }},
		{"prefetcher last lines short", func(ck *pipeline.Checkpoint) { pf := ck.Mem.Prefetch; pf.LastLine = pf.LastLine[1:] }},
		{"prefetcher strides short", func(ck *pipeline.Checkpoint) { pf := ck.Mem.Prefetch; pf.Stride = pf.Stride[1:] }},
		{"prefetcher confidences short", func(ck *pipeline.Checkpoint) { pf := ck.Mem.Prefetch; pf.Conf = pf.Conf[1:] }},
		{"D-VTAGE LVT tags short", func(ck *pipeline.Checkpoint) { ck.VP.LVTTags = ck.VP.LVTTags[1:] }},
		{"D-VTAGE LVT presence short", func(ck *pipeline.Checkpoint) { ck.VP.LVTHas = ck.VP.LVTHas[1:] }},
		{"D-VTAGE LVT byte tags short", func(ck *pipeline.Checkpoint) { ck.VP.LVTBtag = ck.VP.LVTBtag[1:] }},
		{"D-VTAGE VT0 confidences short", func(ck *pipeline.Checkpoint) { ck.VP.VT0Conf = ck.VP.VT0Conf[1:] }},
		{"D-VTAGE component useful bits short", func(ck *pipeline.Checkpoint) { c := &ck.VP.Comps[0]; c.Useful = c.Useful[1:] }},
		{"D-VTAGE component confidences short", func(ck *pipeline.Checkpoint) { c := &ck.VP.Comps[0]; c.Conf = c.Conf[1:] }},
		{"warming µ-ops with no open block", func(ck *pipeline.Checkpoint) { ck.WarmBlockOpen = false }},
		{"more warming µ-ops than a block holds", func(ck *pipeline.Checkpoint) {
			for len(ck.WarmUOps) <= isa.FetchBlockSize*isa.MaxUOpsPerInst {
				ck.WarmUOps = append(ck.WarmUOps, ck.WarmUOps[0])
			}
		}},
		{"warming µ-op outside the open block", func(ck *pipeline.Checkpoint) { ck.WarmUOps[0].PC += isa.FetchBlockSize }},
	} {
		ck, err := p.Snapshot(4000)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(ck)
		rec, err := restoreRecovered(mk, ck)
		switch {
		case rec != nil:
			t.Errorf("%s: Restore panicked: %v", tc.name, rec)
		case err == nil:
			t.Errorf("%s: restored", tc.name)
		}
	}
	ck, err := p.Snapshot(4000)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := restoreRecovered(mk, ck); err != nil || rec != nil {
		t.Fatalf("the unbroken checkpoint does not restore: %v %v", err, rec)
	}
}

// TestCheckpointsRefuseADetailedProcessor: Snapshot and Restore refuse
// a processor that has run a detailed cycle since New or Reset, even
// one that ran to the end of its stream and drained. A checkpoint
// carries only what warming trains, and a detailed run leaves state it
// does not carry (store sets, BeBoP's window and update queue). Reset
// re-arms the processor.
func TestCheckpointsRefuseADetailedProcessor(t *testing.T) {
	for _, mk := range []ConfigFactory{Baseline(), EOLEBeBoP("Medium", MediumConfig())} {
		name := mk().Name
		stream, err := sampleProfile(t, "gcc").Open(6000)
		if err != nil {
			t.Fatal(err)
		}
		p := pipeline.New(mk(), stream)
		if n := p.Warm(4000); n != 4000 {
			t.Fatalf("%s: warmed %d of 4000 instructions", name, n)
		}
		ck, err := p.Snapshot(4000)
		if err != nil {
			t.Fatalf("%s: Snapshot after warming: %v", name, err)
		}
		if r := p.RunWarm(0, 0); r.Insts == 0 {
			t.Fatalf("%s: the detailed run committed nothing", name)
		}
		if _, err := p.Snapshot(6000); err == nil {
			t.Errorf("%s: Snapshot accepted a processor that ran detailed", name)
		}
		if err := p.Restore(ck); err == nil {
			t.Errorf("%s: Restore accepted a processor that ran detailed", name)
		}
		p.Reset(mk(), nil)
		if err := p.Restore(ck); err != nil {
			t.Errorf("%s: Restore after Reset: %v", name, err)
		}
	}
}

// restoreRecovered restores ck into a fresh processor of mk's
// configuration and returns what Restore panicked with, or its error.
func restoreRecovered(mk ConfigFactory, ck *pipeline.Checkpoint) (rec any, err error) {
	defer func() { rec = recover() }()
	return nil, pipeline.New(mk(), nil).Restore(ck)
}
