package pipeline

import (
	"testing"

	"bebop/internal/branch"
	"bebop/internal/cache"
	"bebop/internal/isa"
	"bebop/internal/predictor"
	"bebop/internal/workload"
)

func TestSerialFPChainBindsIPC(t *testing.T) {
	p := New(DefaultConfig(), &chainStream{n: 3000})
	r := p.RunWarm(0, 0)
	// 3000 dependent FP ops at latency 3 need at least ~8500 cycles.
	if r.Cycles < 8500 {
		t.Fatalf("serial FP chain did not serialize: %d cycles for %d insts", r.Cycles, r.Insts)
	}
	if r.Insts != 3000 {
		t.Fatalf("committed %d insts, want 3000", r.Insts)
	}
}

func TestLoopedChainBindsIPC(t *testing.T) {
	p := New(DefaultConfig(), &loopChainStream{n: 12000})
	r := p.RunWarm(0, 0)
	// 10000 chain links at 3 cycles each: at least ~28000 cycles even
	// with perfect branch prediction.
	if r.Cycles < 28000 {
		t.Fatalf("looped chain did not serialize: %d cycles", r.Cycles)
	}
}

func TestIndependentOpsReachHighIPC(t *testing.T) {
	p := New(DefaultConfig(), &indepStream{n: 30000})
	r := p.RunWarm(10000, 0) // exclude the cold I-cache start-up
	if r.UPC < 3.0 {
		t.Fatalf("independent ALU stream reached only %.2f µops/cycle", r.UPC)
	}
	if r.UPC > 8.0 {
		t.Fatalf("µops/cycle %.2f exceeds machine width", r.UPC)
	}
}

func TestAllInstructionsCommit(t *testing.T) {
	p := New(DefaultConfig(), &loopChainStream{n: 5000})
	r := p.RunWarm(0, 0)
	if r.Insts != 5000 {
		t.Fatalf("committed %d of 5000 instructions", r.Insts)
	}
}

func TestVPCollapsesPredictableChain(t *testing.T) {
	base := New(DefaultConfig(), &loopChainStream{n: 12000}).RunWarm(0, 0)
	vp := New(
		DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig()))),
		&loopChainStream{n: 12000},
	).RunWarm(0, 0)
	if vp.Cycles >= base.Cycles {
		t.Fatalf("VP did not speed up a strided chain: %d vs %d cycles", vp.Cycles, base.Cycles)
	}
	speedup := float64(base.Cycles) / float64(vp.Cycles)
	if speedup < 1.5 {
		t.Fatalf("strided chain speedup only %.2f", speedup)
	}
	if vp.VP.Accuracy() < 0.995 {
		t.Fatalf("VP accuracy %.4f below the FPC design point", vp.VP.Accuracy())
	}
}

func TestVPHarmlessOnUnpredictableChain(t *testing.T) {
	base := New(DefaultConfig(), &loopChainStream{n: 12000, chaosVals: true, rngState: 7}).RunWarm(0, 0)
	vp := New(
		DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig()))),
		&loopChainStream{n: 12000, chaosVals: true, rngState: 7},
	).RunWarm(0, 0)
	ratio := float64(base.Cycles) / float64(vp.Cycles)
	if ratio < 0.97 {
		t.Fatalf("VP slowed an unpredictable chain to %.3f", ratio)
	}
	if vp.ValueMispredicts > 20 {
		t.Fatalf("FPC let %d mispredictions through on random values", vp.ValueMispredicts)
	}
}

func TestBranchMispredictsCharged(t *testing.T) {
	prof, _ := workload.ProfileByName("gobmk") // branchy workload
	g := workload.New(prof, 20000)
	r := New(DefaultConfig(), g).RunWarm(0, 0)
	if r.BrMispredicts == 0 {
		t.Fatal("branchy workload reported zero mispredictions")
	}
	if r.BrCondRetired == 0 {
		t.Fatal("no conditional branches retired")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	p := New(DefaultConfig(), &loadStoreStream{n: 8000, conflict: true})
	r := p.RunWarm(0, 0)
	if r.StoreForwards == 0 {
		t.Fatal("same-address store->load pairs never forwarded")
	}
}

func TestMinimumPipelineDepth(t *testing.T) {
	// A single instruction cannot commit before MinFetchToCommit cycles.
	p := New(DefaultConfig(), &indepStream{n: 1})
	r := p.RunWarm(0, 0)
	if r.Cycles < int64(DefaultConfig().MinFetchToCommit) {
		t.Fatalf("1-inst program finished in %d cycles, below pipeline depth", r.Cycles)
	}
}

func TestEOLEMatchesWiderBaselineVP(t *testing.T) {
	// Fig. 5(b): EOLE at issue width 4 should be within a few percent of
	// the 6-issue Baseline_VP on a realistic workload.
	prof, _ := workload.ProfileByName("mesa")
	mkVP := func() Config {
		return DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig())))
	}
	mkEOLE := func() Config {
		return DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig()))).WithEOLE(4)
	}
	rVP := New(mkVP(), workload.New(prof, 60000)).RunWarm(0, 0)
	rEOLE := New(mkEOLE(), workload.New(prof, 60000)).RunWarm(0, 0)
	ratio := float64(rVP.Cycles) / float64(rEOLE.Cycles)
	if ratio < 0.90 {
		t.Fatalf("EOLE_4 much slower than Baseline_VP_6: %.3f", ratio)
	}
	if rEOLE.EarlyExecuted == 0 || rEOLE.LateExecuted == 0 {
		t.Fatalf("EOLE stages unused: early=%d late=%d", rEOLE.EarlyExecuted, rEOLE.LateExecuted)
	}
}

func TestNarrowIssueWithoutEOLEHurts(t *testing.T) {
	// Shrinking the issue width without EOLE must cost performance on an
	// ILP-rich workload (this is why EOLE matters).
	prof, _ := workload.ProfileByName("povray")
	cfg4 := DefaultConfig()
	cfg4.IssueWidth = 3
	r6 := New(DefaultConfig(), workload.New(prof, 60000)).RunWarm(0, 0)
	r4 := New(cfg4, workload.New(prof, 60000)).RunWarm(0, 0)
	if r4.Cycles <= r6.Cycles {
		t.Fatalf("3-issue (%d cyc) not slower than 6-issue (%d cyc)", r4.Cycles, r6.Cycles)
	}
}

func TestFreeLoadImmediates(t *testing.T) {
	prof, _ := workload.ProfileByName("gzip")
	cfg := DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig())))
	r := New(cfg, workload.New(prof, 30000)).RunWarm(0, 0)
	if r.FreeLoadImms == 0 {
		t.Fatal("no load immediates executed for free under VP")
	}
	base := New(DefaultConfig(), workload.New(prof, 30000)).RunWarm(0, 0)
	if base.FreeLoadImms != 0 {
		t.Fatal("baseline without VP must not have free load immediates")
	}
}

func TestDeterminism(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	a := New(DefaultConfig(), workload.New(prof, 30000)).RunWarm(0, 0)
	b := New(DefaultConfig(), workload.New(prof, 30000)).RunWarm(0, 0)
	if a.Cycles != b.Cycles || a.Insts != b.Insts {
		t.Fatalf("identical runs diverged: %d/%d vs %d/%d cycles/insts",
			a.Cycles, a.Insts, b.Cycles, b.Insts)
	}
}

func TestWarmupExcludesStats(t *testing.T) {
	prof, _ := workload.ProfileByName("swim")
	full := New(DefaultConfig(), workload.New(prof, 60000)).RunWarm(0, 0)
	warm := New(DefaultConfig(), workload.New(prof, 60000)).RunWarm(30000, 0)
	if warm.Insts >= full.Insts {
		t.Fatalf("warm-up not excluded: %d measured insts", warm.Insts)
	}
	if warm.Insts < 25000 {
		t.Fatalf("measured window too small: %d", warm.Insts)
	}
	// The measured window must report coherent, positive rates. (Warm IPC
	// is not universally above the cold-start IPC: the measured slice may
	// cover different loops.)
	if warm.IPC <= 0 || warm.Cycles <= 0 {
		t.Fatalf("degenerate warm measurement: %+v", warm.Stats)
	}
}

// TestNoWarmupExcludesFunctionalWarming: with no detailed warmup the
// measured window starts at the first cycle, so a detailed run right
// after functional warming reports none of the warming pass's cache
// misses or MSHR merges.
func TestNoWarmupExcludesFunctionalWarming(t *testing.T) {
	prof, _ := workload.ProfileByName("mcf")
	p := New(DefaultConfig(), workload.New(prof, 20_000))
	if n := p.Warm(20_000); n != 20_000 {
		t.Fatalf("warmed %d of 20000 instructions", n)
	}
	r := p.RunWarm(0, 0) // the stream is exhausted: nothing to measure
	if r.Insts != 0 || r.L1DMisses != 0 || r.L2Misses != 0 || r.L1DMSHRMerges != 0 || r.L2MSHRMerges != 0 {
		t.Fatalf("an empty measured window reports %d insts, %d/%d L1D/L2 misses, %d/%d merges",
			r.Insts, r.L1DMisses, r.L2Misses, r.L1DMSHRMerges, r.L2MSHRMerges)
	}
}

// TestRestoreCarriesNoCounters: counters are zeroed where the measured
// window starts, so no checkpoint carries them, and a processor restored
// from a warmed checkpoint reads no misses or merges at any cache level.
func TestRestoreCarriesNoCounters(t *testing.T) {
	prof, _ := workload.ProfileByName("mcf")
	p := New(DefaultConfig(), workload.New(prof, 20_000))
	if n := p.Warm(20_000); n != 20_000 {
		t.Fatalf("warmed %d of 20000 instructions", n)
	}
	if p.mem.L1D.Misses == 0 {
		t.Fatal("warming counted no L1D misses, so restoring could not carry any")
	}
	ck, err := p.Snapshot(20_000)
	if err != nil {
		t.Fatal(err)
	}
	q := New(DefaultConfig(), workload.New(prof, 20_000))
	if err := q.Restore(ck); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		name string
		c    *cache.Cache
	}{{"L1I", q.mem.L1I}, {"L1D", q.mem.L1D}, {"L2", q.mem.L2}} {
		if l.c.Misses != 0 || l.c.MSHRMerges != 0 {
			t.Errorf("restored %s reads %d misses and %d merges, want 0 and 0", l.name, l.c.Misses, l.c.MSHRMerges)
		}
	}
}

func TestValueMispredictionSquashes(t *testing.T) {
	// An adversarial predictor that confidently predicts wrong values for
	// everything must trigger squashes and still produce a correct run.
	p := New(confWrongConfig(), &indepStream{n: 4000})
	r := p.RunWarm(0, 0)
	if r.ValueMispredicts == 0 {
		t.Fatal("adversarial predictor produced no value mispredictions")
	}
	if r.Insts != 4000 {
		t.Fatalf("squash recovery lost instructions: %d/4000", r.Insts)
	}
	if r.SquashedUOps == 0 {
		t.Fatal("no µ-ops squashed")
	}
}

// wrongVP confidently predicts an impossible value for every eligible µ-op.
type wrongVP struct{ stats VPStats }

func (w *wrongVP) Name() string { return "adversarial" }
func (w *wrongVP) OnFetchBlock(_, _ uint64, _ *branch.History, uops []*UOp) {
	for _, u := range uops {
		if u.Eligible {
			u.Predicted = true
			u.PredValue = ^u.Value // always wrong
			u.PredConfident = true
		}
	}
}
func (w *wrongVP) OnRetire(u *UOp) {
	if u.Eligible {
		w.stats.Eligible++
		if u.PredConfident {
			w.stats.Used++
		}
	}
}
func (w *wrongVP) OnSquash(*UOp)          {}
func (w *wrongVP) OnFlush(uint64, uint64) {}
func (w *wrongVP) StorageBits() int       { return 0 }
func (w *wrongVP) Stats() VPStats         { return w.stats }
func (w *wrongVP) ResetStats()            { w.stats = VPStats{} }

func confWrongConfig() Config {
	cfg := DefaultConfig()
	cfg.VP = &wrongVP{}
	cfg.MinFetchToCommit = 20
	return cfg
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg, &indepStream{n: 20000})
	for i := 0; i < 30000 && !(p.streamDone && p.rob.Len() == 0 && p.feQ.Len() == 0 && p.pending.Len() == 0); i++ {
		p.commitStage()
		p.issueStage()
		p.dispatchStage()
		p.fetchStage()
		p.now++
		if p.rob.Len() > cfg.ROBSize {
			t.Fatalf("ROB overflow: %d > %d", p.rob.Len(), cfg.ROBSize)
		}
		if p.iqCount > cfg.IQSize {
			t.Fatalf("IQ overflow: %d > %d", p.iqCount, cfg.IQSize)
		}
		if p.feQ.Len() > cfg.FetchQueueSize {
			t.Fatalf("decode queue overflow: %d > %d", p.feQ.Len(), cfg.FetchQueueSize)
		}
	}
}

func TestCommitInProgramOrder(t *testing.T) {
	// Sequence numbers at the ROB head must be non-decreasing over time.
	p := New(DefaultConfig(), &loopChainStream{n: 3000})
	var lastHead uint64
	for i := 0; i < 40000; i++ {
		p.commitStage()
		p.issueStage()
		p.dispatchStage()
		p.fetchStage()
		p.now++
		if p.rob.Len() > 0 {
			if p.rob.Front().Seq < lastHead {
				t.Fatalf("ROB head went backwards: %d after %d", p.rob.Front().Seq, lastHead)
			}
			lastHead = p.rob.Front().Seq
		}
		if p.streamDone && p.pending.Len() == 0 && p.feQ.Len() == 0 && p.rob.Len() == 0 {
			break
		}
	}
}

func TestUOpFieldsPropagate(t *testing.T) {
	// The pipeline must hand the trace's values/addresses through to
	// retirement untouched.
	var sawLoad bool
	prof, _ := workload.ProfileByName("gzip")
	g := workload.New(prof, 5000)
	var in isa.Inst
	for g.Next(&in) {
		for i := 0; i < in.NumUOps; i++ {
			if in.UOps[i].Class == isa.ClassLoad && in.UOps[i].Addr != 0 {
				sawLoad = true
			}
		}
	}
	if !sawLoad {
		t.Fatal("workload produced no loads with addresses")
	}
}
