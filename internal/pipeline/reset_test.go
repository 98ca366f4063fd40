package pipeline

import (
	"testing"

	"bebop/internal/predictor"
	"bebop/internal/workload"
)

// TestResetMatchesFresh is the contract of Processor.Reset: a recycled
// processor must produce bit-identical results to a freshly constructed
// one, for the baseline and the VP pipeline, including after a run with a
// different configuration in between (stale table state must not leak).
func TestResetMatchesFresh(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	other, _ := workload.ProfileByName("mcf")
	mkVP := func() Config {
		return DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig())))
	}

	fresh := New(DefaultConfig(), workload.New(prof, 20000)).RunWarm(0, 0)
	freshVP := New(mkVP(), workload.New(prof, 20000)).RunWarm(0, 0)

	// One processor, three consecutive jobs: other workload, then the two
	// reference jobs via Reset.
	p := New(DefaultConfig(), workload.New(other, 5000))
	p.RunWarm(0, 0)
	p.Reset(DefaultConfig(), workload.New(prof, 20000))
	reused := p.RunWarm(0, 0)
	p.Reset(mkVP(), workload.New(prof, 20000))
	reusedVP := p.RunWarm(0, 0)

	if reused != fresh {
		t.Fatalf("baseline reset run diverged:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
	// VP results carry predictor stats that depend only on the (fresh) VP
	// instance, so full equality must hold here too.
	if reusedVP != freshVP {
		t.Fatalf("VP reset run diverged:\nfresh:  %+v\nreused: %+v", freshVP, reusedVP)
	}
}

// TestResetRebuildsOnGeometryChange: Reset with different table sizes must
// still behave like New (rebuild, not a mis-sized clear).
func TestResetRebuildsOnGeometryChange(t *testing.T) {
	prof, _ := workload.ProfileByName("twolf")
	small := DefaultConfig()
	small.BTBEntries = 1024
	small.BranchCfg.BaseEntries = 1024
	small.StoreSetEntries = 256
	small.MemCfg.L2.SizeBytes = 1 << 18

	fresh := New(small, workload.New(prof, 15000)).RunWarm(0, 0)
	p := New(DefaultConfig(), workload.New(prof, 5000))
	p.RunWarm(0, 0)
	p.Reset(small, workload.New(prof, 15000))
	reused := p.RunWarm(0, 0)
	if reused != fresh {
		t.Fatalf("geometry-changing reset diverged:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// TestHotLoopAllocationFree pins the tentpole property: once the pools
// and rings are warm, the cycle loop performs (near) zero allocations per
// simulated instruction. The budget of 500 allocations for 30k
// instructions (~0.02 allocs/inst) leaves room only for rare high-water
// growth, not per-instruction churn.
func TestHotLoopAllocationFree(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	p := New(DefaultConfig(), workload.New(prof, 30000))
	p.RunWarm(0, 0) // warm the pools and ring high-water marks

	allocs := testing.AllocsPerRun(1, func() {
		p.Reset(DefaultConfig(), workload.New(prof, 30000))
		p.RunWarm(0, 0)
	})
	// workload.New builds the static program (~100 small allocations);
	// anything near per-instruction scale means the hot loop regressed.
	if allocs > 500 {
		t.Fatalf("hot loop allocates: %.0f allocs for 30k insts", allocs)
	}
}

// TestResetDropsStaleFoldRegisters: a pooled processor recycled from a
// VP configuration to a VP-less one must not keep paying Push cost for
// the value predictor's folded-history registers. Registers are created
// by the first fold of each pair, so each count is taken after a run.
func TestResetDropsStaleFoldRegisters(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	p := New(DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig()))), workload.New(prof, 2000))
	p.RunWarm(0, 0)
	withVP := p.hist.FoldRegisters()
	p.Reset(DefaultConfig(), workload.New(prof, 2000))
	p.RunWarm(0, 0)
	baseOnly := p.hist.FoldRegisters()
	if baseOnly >= withVP {
		t.Fatalf("Reset kept stale VP fold registers: %d with VP, %d after reset to baseline", withVP, baseOnly)
	}
	fresh := New(DefaultConfig(), workload.New(prof, 2000))
	fresh.RunWarm(0, 0)
	if n := fresh.hist.FoldRegisters(); baseOnly != n {
		t.Fatalf("reset processor has %d fold registers, fresh baseline has %d", baseOnly, n)
	}
}
