package integration

import (
	"testing"

	"bebop/internal/bebop"
	"bebop/internal/pipeline"
	"bebop/internal/predictor"
	"bebop/internal/specwindow"
	"bebop/internal/workload"
)

// TestAllWorkloadsConserveInstructions is the pipeline's central safety
// property: for every Table II profile, every generated instruction
// commits exactly once, under the baseline, the idealistic VP model and
// the full BeBoP infrastructure (squash/refetch must never lose or
// duplicate work).
func TestAllWorkloadsConserveInstructions(t *testing.T) {
	const n = 8000
	mkBeBoP := func() pipeline.Config {
		bb := bebop.Config{
			Predictor: predictor.DVTAGEConfig{
				NPred: 6, BaseEntries: 256, LVTTagBits: 5,
				TaggedEntries: 256, HistLens: []int{2, 4, 8, 16, 32, 64}, TagBitsLo: 13,
				StrideBits: 8, FPCProbs: predictor.DefaultFPCProbs(), Seed: 0xBEB0,
			},
			WindowSize: 32, WindowTagBits: 15, Policy: specwindow.PolicyDnRDnR,
		}
		return pipeline.DefaultConfig().WithVP(bebop.New(bb)).WithEOLE(4)
	}
	for _, prof := range workload.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			base := pipeline.New(pipeline.DefaultConfig(), workload.New(prof, n)).RunWarm(0, 0)
			if base.Insts != n {
				t.Fatalf("baseline committed %d/%d", base.Insts, n)
			}
			bb := pipeline.New(mkBeBoP(), workload.New(prof, n)).RunWarm(0, 0)
			if bb.Insts != n {
				t.Fatalf("BeBoP committed %d/%d", bb.Insts, n)
			}
		})
	}
}

// TestVPAccuracyInvariant: Forward Probabilistic Counters must keep the
// accuracy of *used* predictions at the paper's >99.5% design point on
// every workload, for both infrastructures.
func TestVPAccuracyInvariant(t *testing.T) {
	const n = 12000
	for _, name := range []string{"swim", "gcc", "mcf", "bzip2", "xalancbmk", "milc", "twolf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof, _ := workload.ProfileByName(name)
			cfg := pipeline.DefaultConfig().WithVP(pipeline.NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig())))
			r := pipeline.New(cfg, workload.New(prof, n)).RunWarm(0, 0)
			if r.VP.Used > 200 && r.VP.Accuracy() < 0.99 {
				t.Fatalf("accuracy %.4f below design point (used=%d)", r.VP.Accuracy(), r.VP.Used)
			}
		})
	}
}

// TestVPNeverCatastrophic: with squash-at-commit recovery and FPC
// confidence, adding VP must never slow a workload down more than a few
// percent (the paper reports no slowdown in Fig. 5(a)).
func TestVPNeverCatastrophic(t *testing.T) {
	const n = 10000
	for _, name := range []string{"mcf", "twolf", "omnetpp", "gobmk"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof, _ := workload.ProfileByName(name)
			base := pipeline.New(pipeline.DefaultConfig(), workload.New(prof, n)).RunWarm(0, 0)
			cfg := pipeline.DefaultConfig().WithVP(pipeline.NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig())))
			vp := pipeline.New(cfg, workload.New(prof, n)).RunWarm(0, 0)
			ratio := float64(base.Cycles) / float64(vp.Cycles)
			if ratio < 0.93 {
				t.Fatalf("VP slowed %s to %.3f of baseline", name, ratio)
			}
		})
	}
}

// TestSpecWindowHitRate: on a loop-heavy workload the speculative window
// must actually be exercised.
func TestSpecWindowHitRate(t *testing.T) {
	prof, _ := workload.ProfileByName("bzip2")
	bb := bebop.New(bebop.Config{
		Predictor: predictor.DVTAGEConfig{
			NPred: 6, BaseEntries: 2048, LVTTagBits: 5,
			TaggedEntries: 256, HistLens: []int{2, 4, 8, 16, 32, 64}, TagBitsLo: 13,
			StrideBits: 64, FPCProbs: predictor.DefaultFPCProbs(), Seed: 1,
		},
		WindowSize: 32, WindowTagBits: 15, Policy: specwindow.PolicyDnRDnR,
	})
	cfg := pipeline.DefaultConfig().WithVP(bb).WithEOLE(4)
	r := pipeline.New(cfg, workload.New(prof, 20000)).RunWarm(0, 0)
	if r.VP.SpecWindowProbes == 0 {
		t.Fatal("window never probed")
	}
	hitRate := float64(r.VP.SpecWindowHits) / float64(r.VP.SpecWindowProbes)
	if hitRate < 0.3 {
		t.Fatalf("window hit rate %.2f too low for a tight-loop workload", hitRate)
	}
}

// TestRecoveryPoliciesAllComplete: every recovery policy must drain every
// workload correctly (the policies differ in performance, never in
// correctness).
func TestRecoveryPoliciesAllComplete(t *testing.T) {
	const n = 8000
	prof, _ := workload.ProfileByName("equake")
	for _, pol := range []specwindow.Policy{
		specwindow.PolicyIdeal, specwindow.PolicyRepred,
		specwindow.PolicyDnRDnR, specwindow.PolicyDnRR,
	} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			bb := bebop.New(bebop.Config{
				Predictor: predictor.DVTAGEConfig{
					NPred: 6, BaseEntries: 256, LVTTagBits: 5,
					TaggedEntries: 128, HistLens: []int{2, 4, 8, 16, 32, 64}, TagBitsLo: 13,
					StrideBits: 8, FPCProbs: predictor.DefaultFPCProbs(), Seed: 2,
				},
				WindowSize: 16, WindowTagBits: 15, Policy: pol,
			})
			cfg := pipeline.DefaultConfig().WithVP(bb).WithEOLE(4)
			r := pipeline.New(cfg, workload.New(prof, n)).RunWarm(0, 0)
			if r.Insts != n {
				t.Fatalf("policy %s lost instructions: %d/%d", pol, r.Insts, n)
			}
		})
	}
}

// TestCycleCountsAreDeterministicAcrossConfigs guards the reproducibility
// promise: repeated identical runs give identical cycle counts for every
// configuration kind.
func TestCycleCountsAreDeterministicAcrossConfigs(t *testing.T) {
	prof, _ := workload.ProfileByName("ammp")
	mk := []func() pipeline.Config{
		pipeline.DefaultConfig,
		func() pipeline.Config {
			return pipeline.DefaultConfig().WithVP(pipeline.NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig())))
		},
	}
	for i, f := range mk {
		a := pipeline.New(f(), workload.New(prof, 8000)).RunWarm(0, 0)
		b := pipeline.New(f(), workload.New(prof, 8000)).RunWarm(0, 0)
		if a.Cycles != b.Cycles {
			t.Fatalf("config %d non-deterministic: %d vs %d", i, a.Cycles, b.Cycles)
		}
	}
}
