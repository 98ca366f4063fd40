package experiments

import (
	"context"
	"fmt"

	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/pipeline"
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
	key := mk().Name
	jobs := make([]engine.Job[pipeline.Result], len(f.Grid))
	for i, p := range f.Grid {
		src, err := f.Source(p)
		if err != nil {
			return ProbeCurve{}, err
		}
		jobs[i] = engine.Job[pipeline.Result]{
			Key:   key,
			Bench: src.Name(),
			Run: func(ctx context.Context) (pipeline.Result, error) {
				return core.RunSourceCtx(ctx, src, r.opts.Insts/2, r.opts.Insts, mk)
			},
		}
	}
	rs, err := r.eng.RunBatch(r.ctx, jobs)
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return ProbeCurve{}, err
	}
	curve := ProbeCurve{Family: f, Config: key}
	byName := make(map[string]pipeline.Result, len(rs))
	for _, jr := range rs {
		if jr.Err != nil {
			return ProbeCurve{}, jr.Err
		}
		byName[jr.Bench] = jr.Value
	}
	for _, p := range f.Grid {
		res, ok := byName[probe.SourceName(f.Name, p)]
		if !ok {
			return ProbeCurve{}, fmt.Errorf("experiments: probe %s/%d produced no result", f.Name, p)
		}
		curve.Points = append(curve.Points, ProbePoint{Pressure: p, Result: res})
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
