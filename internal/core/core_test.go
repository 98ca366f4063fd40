package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"bebop/internal/pipeline"
	"bebop/internal/util"
)

// runProfile simulates a Table II profile the paper's way: insts/2
// warmup instructions, then insts measured.
func runProfile(t *testing.T, bench string, insts int64, mk ConfigFactory) pipeline.Result {
	t.Helper()
	r, err := RunSourceCtx(context.Background(), sampleProfile(t, bench), insts/2, insts, mk)
	if err != nil {
		t.Fatalf("%s: %v", bench, err)
	}
	return r
}

func TestTable3StorageBudgets(t *testing.T) {
	// The paper's Table III storage budgets, reproduced from first
	// principles. Our accounting must land within 5% of the published
	// figures (field-level layout details differ slightly).
	paper := map[string]float64{
		"Small_4p": 17.26,
		"Small_6p": 17.18,
		"Medium":   32.76,
		"Large":    61.65,
	}
	for _, c := range TableIIIConfigs() {
		pc := c.Cfg.Predictor
		pc.SpecWinEntries = c.Cfg.WindowSize
		pc.SpecWinTagBits = c.Cfg.WindowTagBits
		kb := util.BitsToKB(pc.StorageBits())
		want := paper[c.Name]
		if math.Abs(kb-want)/want > 0.05 {
			t.Errorf("%s: %0.2fKB, paper %0.2fKB (%.1f%% off)",
				c.Name, kb, want, 100*math.Abs(kb-want)/want)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	// Structural parameters straight from Table III.
	cases := []struct {
		name            string
		npred, base     int
		win, strideBits int
	}{
		{"Small_4p", 4, 256, 32, 8},
		{"Small_6p", 6, 128, 32, 8},
		{"Medium", 6, 256, 32, 8},
		{"Large", 6, 512, 56, 16},
	}
	cfgs := TableIIIConfigs()
	for i, want := range cases {
		got := cfgs[i]
		if got.Name != want.name {
			t.Fatalf("config %d: name %s, want %s", i, got.Name, want.name)
		}
		pc := got.Cfg.Predictor
		if pc.NPred != want.npred || pc.BaseEntries != want.base ||
			got.Cfg.WindowSize != want.win || pc.StrideBits != want.strideBits {
			t.Fatalf("%s: got %d/%d/%d/%d", want.name, pc.NPred, pc.BaseEntries,
				got.Cfg.WindowSize, pc.StrideBits)
		}
	}
}

func TestNewInstPredictorNames(t *testing.T) {
	for _, name := range InstPredictorNames() {
		p, err := NewInstPredictor(name)
		if err != nil {
			t.Fatalf("predictor %s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("predictor name mismatch: %s vs %s", p.Name(), name)
		}
		if p.StorageBits() <= 0 {
			t.Fatalf("%s reports no storage", name)
		}
	}
	if _, err := NewInstPredictor("bogus"); err == nil {
		t.Fatal("bogus predictor accepted")
	}
}

func TestConfigPresetNames(t *testing.T) {
	if Baseline()().Name != "Baseline_6_60" {
		t.Fatal("baseline preset name wrong")
	}
	if got := BaselineVP("D-VTAGE")().Name; got != "Baseline_VP_6_60/D-VTAGE" {
		t.Fatalf("baseline-VP preset name: %s", got)
	}
	if got := EOLEInstVP()().Name; got != "EOLE_4_60" {
		t.Fatalf("EOLE preset name: %s", got)
	}
}

func TestEOLEPresetParameters(t *testing.T) {
	cfg := EOLEInstVP()()
	if !cfg.EOLE || cfg.IssueWidth != 4 || cfg.VP == nil {
		t.Fatalf("EOLE_4_60 misconfigured: eole=%v width=%d", cfg.EOLE, cfg.IssueWidth)
	}
	base := Baseline()()
	if base.EOLE || base.VP != nil || base.IssueWidth != 6 {
		t.Fatal("baseline misconfigured")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := runProfile(t, "vpr", 10000, Baseline())
	b := runProfile(t, "vpr", 10000, Baseline())
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestVPSpeedsUpPredictableWorkload(t *testing.T) {
	base := runProfile(t, "swim", 40000, Baseline())
	vp := runProfile(t, "swim", 40000, BaselineVP("D-VTAGE"))
	if vp.Cycles >= base.Cycles {
		t.Fatalf("VP gave no speedup on swim: %d vs %d", vp.Cycles, base.Cycles)
	}
}

func TestVPAccuracyAboveDesignPoint(t *testing.T) {
	// FPC must keep used-prediction accuracy >= 99.5% (Section III-A).
	for _, bench := range []string{"swim", "gcc", "mcf"} {
		r := runProfile(t, bench, 40000, BaselineVP("D-VTAGE"))
		if r.VP.Used > 100 && r.VP.Accuracy() < 0.995 {
			t.Errorf("%s: VP accuracy %.4f below 99.5%%", bench, r.VP.Accuracy())
		}
	}
}

func TestBlockConfigStorageMonotone(t *testing.T) {
	small := BlockConfig(6, 128, 128, 8, 32, 0).Predictor
	big := BlockConfig(6, 512, 256, 16, 32, 0).Predictor
	small.SpecWinEntries, big.SpecWinEntries = 32, 32
	small.SpecWinTagBits, big.SpecWinTagBits = 15, 15
	if small.StorageBits() >= big.StorageBits() {
		t.Fatal("bigger configuration must cost more storage")
	}
}

func TestEOLEBeBoPRuns(t *testing.T) {
	r := runProfile(t, "gzip", 20000, EOLEBeBoP("Medium", MediumConfig()))
	if r.Insts == 0 {
		t.Fatal("BeBoP run committed nothing")
	}
	if r.StorageBits == 0 {
		t.Fatal("BeBoP run reports no predictor storage")
	}
}

func TestAllPredictorNamesConstructible(t *testing.T) {
	names := AllPredictorNames()
	if len(names) != 8 {
		t.Fatalf("AllPredictorNames has %d entries, want 8: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate predictor name %q", n)
		}
		seen[n] = true
		if _, err := NewInstPredictor(n); err != nil {
			t.Fatalf("listed predictor %q does not construct: %v", n, err)
		}
	}
	for _, n := range InstPredictorNames() {
		if !seen[n] {
			t.Fatalf("Fig. 5(a) predictor %q missing from AllPredictorNames", n)
		}
	}
}

func TestUnknownNameErrorsListValidNames(t *testing.T) {
	if _, err := NewInstPredictor("nope"); err == nil ||
		!strings.Contains(err.Error(), "D-FCM") {
		t.Fatalf("unknown predictor error does not list the predictors: %v", err)
	}
	if _, err := NamedFactory("nope", ""); err == nil ||
		!strings.Contains(err.Error(), "eole-bebop") {
		t.Fatalf("unknown config error does not list the configs: %v", err)
	}
	if _, err := NamedFactory("eole-bebop", "nope"); err == nil ||
		!strings.Contains(err.Error(), "Small_4p") {
		t.Fatalf("unknown Table III error does not list the configs: %v", err)
	}
}

func TestNamedFactoryCoversConfigNames(t *testing.T) {
	for _, cfg := range ConfigNames() {
		mk, err := NamedFactory(cfg, "D-VTAGE")
		if cfg == "eole-bebop" {
			// The predictor names a Table III config here.
			mk, err = NamedFactory(cfg, "Medium")
		}
		if err != nil {
			t.Fatalf("NamedFactory(%q): %v", cfg, err)
		}
		if mk == nil || mk().Name == "" {
			t.Fatalf("NamedFactory(%q) built a nameless config", cfg)
		}
	}
}
