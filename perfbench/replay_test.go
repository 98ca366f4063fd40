package main

import (
	"testing"

	"bebop/sim"
)

// TestCheckSampledTellsLoadedFromRebuilt checks the side-file rule: a
// rebuilt side-file restores every interval too, so only the outcome
// counts tell a timed op that reloaded its set-up's side-file from one
// that rebuilt it.
func TestCheckSampledTellsLoadedFromRebuilt(t *testing.T) {
	rep := sim.Report{Sampling: &sim.SamplingReport{Intervals: 10, CheckpointsUsed: 10}}
	for _, c := range []struct {
		reused, rebuilt uint64
		setup, ok       bool
	}{
		{1, 0, false, true},
		{0, 1, false, false},
		{1, 1, false, false},
		{0, 0, false, false},
		{0, 1, true, true},
		{1, 0, true, false},
	} {
		why := checkSampled(rep, rep, c.reused, c.rebuilt, c.setup)
		if (why == "") != c.ok {
			t.Errorf("checkSampled(reused %d, rebuilt %d, setup %v) = %q, want ok=%v", c.reused, c.rebuilt, c.setup, why, c.ok)
		}
	}
	partial := sim.Report{Sampling: &sim.SamplingReport{Intervals: 10, CheckpointsUsed: 9}}
	if why := checkSampled(partial, partial, 1, 0, false); why == "" {
		t.Error("checkSampled accepted a report that restored 9 of 10 intervals")
	}
}
