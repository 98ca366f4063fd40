package experiments

import (
	"fmt"

	"bebop/internal/bebop"
	"bebop/internal/core"
	"bebop/internal/specwindow"
	"bebop/internal/util"
	"bebop/internal/workload"
)

// BenchIPC is one Table II row: measured baseline IPC next to the paper's
// published IPC.
type BenchIPC struct {
	Bench    string
	Suite    string
	INT      bool
	IPC      float64
	PaperIPC float64
}

// Table2 reproduces Table II: the baseline IPC of every workload.
func (r *Runner) Table2() []BenchIPC {
	base := r.Results(core.Baseline())
	var out []BenchIPC
	for _, b := range r.Workloads() {
		prof, _ := workload.ProfileByName(b)
		out = append(out, BenchIPC{
			Bench: b, Suite: prof.Suite, INT: prof.INT,
			IPC: base[b].IPC, PaperIPC: prof.PaperIPC,
		})
	}
	return out
}

// predictors lists one Baseline_VP_6_60 curve per named per-instruction
// predictor, labelled by the predictor's name.
func predictors(names ...string) []curve {
	out := make([]curve, len(names))
	for i, name := range names {
		out[i] = curve{name, core.BaselineVP(name)}
	}
	return out
}

// geometry is the EOLE_4_60 factory for a BeBoP geometry, named by
// core.BlockName so that every figure sweeping the same geometry shares
// its simulations.
func geometry(bb bebop.Config) core.ConfigFactory {
	return core.EOLEBeBoP(core.BlockName(bb), bb)
}

// Fig5a reproduces Fig. 5(a): speedup of the 2d-Stride, VTAGE,
// VTAGE-2d-Stride and D-VTAGE per-instruction predictors (idealistic
// infrastructure) on Baseline_VP_6_60 over Baseline_6_60.
func (r *Runner) Fig5a() []Series {
	return r.over(core.Baseline(), predictors(core.InstPredictorNames()...)...)
}

// Fig5b reproduces Fig. 5(b): speedup of the port-constrained EOLE_4_60
// with D-VTAGE over Baseline_VP_6_60 — the issue-width reduction should be
// almost free.
func (r *Runner) Fig5b() Series {
	return r.over(core.BaselineVP("D-VTAGE"),
		curve{"EOLE_4_60 vs Baseline_VP_6_60", core.EOLEInstVP()})[0]
}

// Fig6a reproduces Fig. 6(a): the impact of the number of predictions per
// entry (4/6/8) for the two structure sizes, with an infinite speculative
// window under the Ideal policy, as speedup summaries over EOLE_4_60.
func (r *Runner) Fig6a() []Series {
	const ideal = specwindow.PolicyIdeal
	return r.over(core.EOLEInstVP(),
		curve{"4p 1K + 6x128", geometry(core.BlockConfig(4, 1024, 128, 64, -1, ideal))},
		curve{"6p 1K + 6x128", geometry(core.BlockConfig(6, 1024, 128, 64, -1, ideal))},
		curve{"8p 1K + 6x128", geometry(core.BlockConfig(8, 1024, 128, 64, -1, ideal))},
		curve{"4p 2K + 6x256", geometry(core.BlockConfig(4, 2048, 256, 64, -1, ideal))},
		curve{"6p 2K + 6x256", geometry(core.BlockConfig(6, 2048, 256, 64, -1, ideal))},
		curve{"8p 2K + 6x256", geometry(core.BlockConfig(8, 2048, 256, 64, -1, ideal))},
	)
}

// Fig6b reproduces Fig. 6(b): the impact of the base and tagged component
// sizes at 6 predictions per entry.
func (r *Runner) Fig6b() []Series {
	const ideal = specwindow.PolicyIdeal
	return r.over(core.EOLEInstVP(),
		curve{"512 + 6x128", geometry(core.BlockConfig(6, 512, 128, 64, -1, ideal))},
		curve{"1K + 6x128", geometry(core.BlockConfig(6, 1024, 128, 64, -1, ideal))},
		curve{"2K + 6x128", geometry(core.BlockConfig(6, 2048, 128, 64, -1, ideal))},
		curve{"512 + 6x256", geometry(core.BlockConfig(6, 512, 256, 64, -1, ideal))},
		curve{"1K + 6x256", geometry(core.BlockConfig(6, 1024, 256, 64, -1, ideal))},
		curve{"2K + 6x256", geometry(core.BlockConfig(6, 2048, 256, 64, -1, ideal))},
	)
}

// StrideRow is one partial-stride data point (Section VI-B(a)).
type StrideRow struct {
	Bits      int
	Series    Series
	StorageKB float64
}

// PartialStrides reproduces the partial stride study: the optimistic
// 6p/2K+6x256 configuration with 64/32/16/8-bit strides. Performance
// should be almost flat while storage collapses.
func (r *Runner) PartialStrides() []StrideRow {
	eole := r.Results(core.EOLEInstVP())
	var out []StrideRow
	for _, bits := range []int{64, 32, 16, 8} {
		bb := core.BlockConfig(6, 2048, 256, bits, -1, specwindow.PolicyIdeal)
		out = append(out, StrideRow{
			Bits:      bits,
			Series:    r.speedups(fmt.Sprintf("%d-bit strides", bits), eole, r.Results(geometry(bb))),
			StorageKB: util.BitsToKB(bb.Predictor.StorageBits()),
		})
	}
	return out
}

// Fig7a reproduces Fig. 7(a): the speculative window recovery policies
// (Ideal, Repred, DnRDnR, DnRR) with an infinite window, as speedup over
// EOLE_4_60. The realistic policies should be near-equivalent.
func (r *Runner) Fig7a() []Series {
	var curves []curve
	for _, pol := range []specwindow.Policy{
		specwindow.PolicyIdeal, specwindow.PolicyRepred,
		specwindow.PolicyDnRDnR, specwindow.PolicyDnRR,
	} {
		curves = append(curves, curve{pol.String(), geometry(core.BlockConfig(6, 2048, 256, 64, -1, pol))})
	}
	return r.over(core.EOLEInstVP(), curves...)
}

// Fig7b reproduces Fig. 7(b): the speculative window size sweep
// (∞/64/56/48/32/16/None) under the DnRDnR policy.
func (r *Runner) Fig7b() []Series {
	var curves []curve
	for _, sz := range []int{-1, 64, 56, 48, 32, 16, 0} {
		label := fmt.Sprintf("%d", sz)
		if sz < 0 {
			label = "inf"
		} else if sz == 0 {
			label = "None"
		}
		curves = append(curves, curve{label, geometry(core.BlockConfig(6, 2048, 256, 64, sz, specwindow.PolicyDnRDnR))})
	}
	return r.over(core.EOLEInstVP(), curves...)
}

// StorageRow is one Table III row.
type StorageRow struct {
	Name      string
	PaperKB   float64
	KB        float64
	NPred     int
	BaseEnts  int
	WinSize   int
	StrideBit int
}

// Table3 reproduces the Table III storage accounting from first
// principles, next to the paper's published budgets.
func Table3() []StorageRow {
	paper := map[string]float64{
		"Small_4p": 17.26, "Small_6p": 17.18, "Medium": 32.76, "Large": 61.65,
	}
	var out []StorageRow
	for _, c := range core.TableIIIConfigs() {
		pc := c.Cfg.Predictor
		pc.SpecWinEntries = c.Cfg.WindowSize
		pc.SpecWinTagBits = c.Cfg.WindowTagBits
		out = append(out, StorageRow{
			Name:      c.Name,
			PaperKB:   paper[c.Name],
			KB:        util.BitsToKB(pc.StorageBits()),
			NPred:     pc.NPred,
			BaseEnts:  pc.BaseEntries,
			WinSize:   c.Cfg.WindowSize,
			StrideBit: pc.StrideBits,
		})
	}
	return out
}

// Fig8 reproduces Fig. 8: the final Table III configurations (plus
// Baseline_VP_6_60 and the idealistic EOLE_4_60) as speedup over
// Baseline_6_60.
func (r *Runner) Fig8() []Series {
	curves := []curve{
		{"Baseline_VP_6_60", core.BaselineVP("D-VTAGE")},
		{"EOLE_4_60", core.EOLEInstVP()},
	}
	for _, c := range core.TableIIIConfigs() {
		curves = append(curves, curve{c.Name, core.EOLEBeBoP(c.Name, c.Cfg)})
	}
	return r.over(core.Baseline(), curves...)
}
