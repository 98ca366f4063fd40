package core

import (
	"testing"

	"bebop/internal/pipeline"
)

// TestRestoreRejectsImpossibleState: a checkpoint whose parallel arrays
// disagree in length, or whose positions lie outside their tables, is
// refused by Restore with an error. Accepting it would panic later in
// the run, or keep the previous run's entries where the short array
// stops.
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
