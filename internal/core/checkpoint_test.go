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
