package sim

import (
	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/experiments"
	"bebop/internal/specwindow"
	"bebop/internal/trace"
	"bebop/internal/util"
	"bebop/internal/workload"
	"bebop/internal/workload/probe"
)

// UnknownNameError is returned whenever a user-supplied name — workload,
// configuration, predictor, experiment, recovery policy — is not in the
// valid set. Error() always lists the valid names; front ends map it to
// a client error (HTTP 400, exit 2) with errors.As.
type UnknownNameError = util.UnknownNameError

// Workloads lists the synthetic Table II workload names in paper order.
func Workloads() []string { return workload.Names() }

// WorkloadInfo describes one catalog workload for listings.
type WorkloadInfo struct {
	Name string `json:"name"`
	// Kind is "synthetic" for Table II profiles, "trace" for .bbt files,
	// "probe" for geometry-probing workloads.
	Kind string `json:"kind"`
	// Suite, INT and PaperIPC describe synthetic profiles (Table II).
	Suite    string  `json:"suite,omitempty"`
	INT      bool    `json:"int,omitempty"`
	PaperIPC float64 `json:"paper_ipc,omitempty"`
	// Path locates a trace workload's .bbt file.
	Path string `json:"path,omitempty"`
	// Axis and Pressure describe probe workloads: the family's pressure
	// knob and this point's value on it.
	Axis     string `json:"axis,omitempty"`
	Pressure int    `json:"pressure,omitempty"`
}

// ListWorkloads describes the full workload catalog: the 36 synthetic
// profiles, the probe families' default-grid points, plus, when traceDir
// is non-empty, the .bbt traces found there. Probe workloads beyond the
// default grids are also runnable — any "probe/<family>/<pressure>" name
// is accepted — but only grid points are listed.
func ListWorkloads(traceDir string) ([]WorkloadInfo, error) {
	cat, err := trace.Catalog(traceDir)
	if err != nil {
		return nil, err
	}
	out := make([]WorkloadInfo, 0, cat.Len())
	for _, name := range cat.Names() {
		src, _ := cat.Lookup(name)
		switch s := src.(type) {
		case workload.ProfileSource:
			out = append(out, WorkloadInfo{
				Name: name, Kind: "synthetic",
				Suite: s.Prof.Suite, INT: s.Prof.INT, PaperIPC: s.Prof.PaperIPC,
			})
		case trace.FileSource:
			out = append(out, WorkloadInfo{Name: name, Kind: "trace", Path: s.Path})
		default:
			out = append(out, WorkloadInfo{Name: name, Kind: "unknown"})
		}
	}
	for _, f := range probe.Families() {
		for _, p := range f.Grid {
			out = append(out, WorkloadInfo{
				Name: probe.SourceName(f.Name, p), Kind: "probe",
				Axis: f.Axis, Pressure: p,
			})
		}
	}
	return out, nil
}

// Configs lists the pipeline configuration names WithConfig accepts.
func Configs() []string { return core.ConfigNames() }

// Predictors lists every per-instruction value predictor name accepted
// by WithPredictor under the baseline-vp configuration.
func Predictors() []string { return core.AllPredictorNames() }

// InstPredictors lists the per-instruction predictors compared in
// Fig. 5(a), the headline contenders.
func InstPredictors() []string { return core.InstPredictorNames() }

// BeBoPConfigs lists the named Table III configurations accepted by
// WithPredictor under the eole-bebop configuration.
func BeBoPConfigs() []string { return core.TableIIINames() }

// Policies lists the speculative-window recovery policy names accepted
// in BeBoPConfig.Policy.
func Policies() []string {
	return []string{
		specwindow.PolicyIdeal.String(),
		specwindow.PolicyRepred.String(),
		specwindow.PolicyDnRDnR.String(),
		specwindow.PolicyDnRR.String(),
	}
}

// Experiments lists the experiment ids a SweepSpec accepts — the paper's
// tables and figures.
func Experiments() []string { return experiments.ExperimentIDs() }

// Formats lists the sweep output formats (text, json, csv).
func Formats() []string { return engine.Formats() }
