package pipeline

import (
	"testing"

	"bebop/internal/branch"
	"bebop/internal/isa"
	"bebop/internal/predictor"
	"bebop/internal/util"
	"bebop/internal/workload"
)

// stateVP is an instruction-based value predictor that takes part in
// checkpoints: its state is a D-VTAGE table set it never trains.
type stateVP struct {
	*InstVP
	tables *predictor.DVTAGE
}

func (v stateVP) AppendState(b []byte) []byte         { return v.tables.AppendState(b) }
func (v stateVP) LoadState(r *util.StateReader) error { return v.tables.LoadState(r) }

// stateVPConfig is Baseline_6_60 with a stateVP, under the baseline's
// name so that it and DefaultConfig accept each other's checkpoints up
// to the value predictor.
func stateVPConfig() Config {
	cfg := DefaultConfig().WithVP(stateVP{NewInstVP(predictor.NewStride(1024, 1)), predictor.NewDVTAGE(predictor.DefaultDVTAGEConfig())})
	cfg.Name = DefaultConfig().Name
	return cfg
}

// stateBeforeVP is the length of the state Snapshot appends before the
// value predictor's presence byte.
func stateBeforeVP(p *Processor) int {
	h := p.hist.Snapshot()
	b := util.AppendUint64(util.AppendUint64s(nil, h.Dir[:]), h.Path)
	return len(p.mem.AppendState(p.ras.AppendState(p.btb.AppendState(p.tage.AppendState(b)))))
}

// TestRestoreRejectsImpossibleState: a checkpoint whose value predictor
// state disagrees with the configuration, whose open fetch block
// warming could never have left, whose tables have another geometry,
// or whose state is cut short or runs on, is refused by Restore with
// an error and no panic.
func TestRestoreRejectsImpossibleState(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	p := New(stateVPConfig(), workload.New(prof, 4000))
	if n := p.Warm(4000); n != 4000 {
		t.Fatalf("warmed %d of 4000 instructions", n)
	}
	if len(p.warmingUOps) == 0 {
		t.Fatal("the test needs an open block with µ-ops at instruction 4000")
	}
	// state snapshots p with its open block edited, then restores it.
	state := func(edit func(p *Processor)) []byte {
		open, pc, uops := p.warmingBlockOpen, p.warmingBlockPC, p.warmingUOps
		p.warmingUOps = append([]WarmUOp(nil), uops...)
		edit(p)
		ck, err := p.Snapshot(4000)
		p.warmingBlockOpen, p.warmingBlockPC, p.warmingUOps = open, pc, uops
		if err != nil {
			t.Fatal(err)
		}
		return ck.State
	}
	valid := state(func(*Processor) {})
	patch := func(at int, c byte) []byte {
		b := append([]byte(nil), valid...)
		b[at] = c
		return b
	}
	withoutVP := New(DefaultConfig(), nil)
	smallBTB := DefaultConfig()
	smallBTB.BTBEntries /= 2
	otherBTB, err := New(smallBTB, nil).Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		state []byte
	}{
		{"value predictor state under a config with none", DefaultConfig(), valid},
		{"no value predictor state under a config with one", stateVPConfig(), func() []byte {
			ck, err := withoutVP.Snapshot(0)
			if err != nil {
				t.Fatal(err)
			}
			return ck.State
		}()},
		{"presence byte other than 0 or 1", stateVPConfig(), patch(stateBeforeVP(p), 2)},
		{"warming µ-ops with no open block", stateVPConfig(), state(func(p *Processor) { p.warmingBlockOpen = false })},
		{"more warming µ-ops than a block holds", stateVPConfig(), state(func(p *Processor) {
			for len(p.warmingUOps) <= isa.FetchBlockSize*isa.MaxUOpsPerInst {
				p.warmingUOps = append(p.warmingUOps, p.warmingUOps[0])
			}
		})},
		{"warming µ-op outside the open block", stateVPConfig(), state(func(p *Processor) { p.warmingUOps[0].PC += isa.FetchBlockSize })},
		{"a BTB of another size", DefaultConfig(), otherBTB.State},
		{"truncated", stateVPConfig(), valid[:len(valid)-1]},
		{"trailing bytes", stateVPConfig(), append(append([]byte(nil), valid...), 0)},
	} {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Errorf("%s: Restore panicked: %v", tc.name, rec)
				}
			}()
			ck := &Checkpoint{InstOffset: 4000, ConfigName: tc.cfg.Name, State: tc.state}
			if err := New(tc.cfg, nil).Restore(ck); err == nil {
				t.Errorf("%s: restored", tc.name)
			}
		}()
	}
	q := New(stateVPConfig(), nil)
	if err := q.Restore(&Checkpoint{InstOffset: 4000, ConfigName: q.cfg.Name, State: valid}); err != nil {
		t.Fatalf("the unbroken checkpoint does not restore: %v", err)
	}
	var h branch.HistorySnapshot
	if q.hist.Snapshot() == h || len(q.warmingUOps) != len(p.warmingUOps) {
		t.Error("the restored processor lacks the history or the open block")
	}
}
