package experiments

import (
	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/pipeline"
	"bebop/internal/workload"
	"bebop/internal/workload/probe"
)

// ProbePoint is one measured point on a probe family's pressure axis.
type ProbePoint struct {
	Pressure int
	Result   pipeline.Result
}

// ProbeCurve is one family's accuracy-vs-pressure curve under one
// configuration: the raw material of the geometry cliffs the oracle
// suite asserts on.
type ProbeCurve struct {
	Family probe.Family
	Config string
	Points []ProbePoint // increasing pressure, grid order
}

// ProbeSweep runs one probe family's default pressure grid under the
// configuration mk builds, through the shared caching engine — probe
// results are cached by (configuration name, probe name) like any other
// workload.
func (r *Runner) ProbeSweep(f probe.Family, mk core.ConfigFactory) (ProbeCurve, error) {
	names := make([]string, len(f.Grid))
	for i, p := range f.Grid {
		names[i] = probe.SourceName(f.Name, p)
	}
	byName, err := r.batch(mk, names, func(i int) (workload.Source, error) { return f.Source(f.Grid[i]) })
	if err != nil {
		return ProbeCurve{}, err
	}
	curve := ProbeCurve{Family: f, Config: mk().Name}
	for i, p := range f.Grid {
		curve.Points = append(curve.Points, ProbePoint{Pressure: p, Result: byName[names[i]]})
	}
	return curve, nil
}

// probeConfigFor picks the configuration a family's default sweep runs
// against: branch-predictor probes measure the baseline's TAGE, value
// and block probes measure EOLE with the Medium BeBoP predictor.
func probeConfigFor(f probe.Family) core.ConfigFactory {
	if f.Name == "tage-history" || f.Name == "tage-capacity" || f.Name == "tage-dilution" {
		return core.Baseline()
	}
	return core.EOLEBeBoP("Medium", core.MediumConfig())
}

// ProbeCurves sweeps every probe family's default grid against its
// default configuration — the "probe" experiment.
func (r *Runner) ProbeCurves() ([]ProbeCurve, error) {
	var out []ProbeCurve
	for _, f := range probe.Families() {
		curve, err := r.ProbeSweep(f, probeConfigFor(f))
		if err != nil {
			return nil, err
		}
		out = append(out, curve)
	}
	return out, nil
}

// probeReport lays cliff curves out as one row per (family, pressure):
// the CSV form is what the full-resolution CI step uploads as artifacts.
func probeReport(title string, curves []ProbeCurve) engine.Report {
	rep := engine.Report{
		Title:   title,
		Columns: []string{"axis", "pressure", "config", "ipc", "br_mpki", "vp_coverage", "vp_accuracy"},
	}
	for _, c := range curves {
		for _, pt := range c.Points {
			res := pt.Result
			rep.Rows = append(rep.Rows, engine.Row{
				Label: probe.SourceName(c.Family.Name, pt.Pressure),
				Cells: []any{
					engine.Str(c.Family.Axis), engine.Int(pt.Pressure), engine.Str(c.Config),
					engine.Num(res.IPC), engine.Num(res.BrMispPKI),
					engine.Num(res.VP.Coverage()), engine.Num(res.VP.Accuracy()),
				},
			})
		}
	}
	return rep
}
