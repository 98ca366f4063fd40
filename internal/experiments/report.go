package experiments

import (
	"fmt"

	"bebop/internal/engine"
	"bebop/internal/util"
)

// experiment is one table or figure of the paper's evaluation: the id a
// sweep selects it by, and the function that runs it and lays the result
// out as a titled table. Every output format renders that table.
type experiment struct {
	id  string
	run func(*Runner) (engine.Report, error)
}

// registry lists the experiments in the order ExperimentIDs reports.
var registry = []experiment{
	{"table2", func(r *Runner) (engine.Report, error) {
		return table2Report("Table II: baseline IPC per workload", r.Table2()), nil
	}},
	{"fig5a", seriesTable("Fig. 5(a): predictors over Baseline_6_60", (*Runner).Fig5a)},
	{"fig5b", seriesTable("Fig. 5(b): EOLE_4_60 over Baseline_VP_6_60",
		func(r *Runner) []Series { return []Series{r.Fig5b()} })},
	{"fig6a", summaryTable("Fig. 6(a): predictions per entry (speedup over EOLE_4_60)", (*Runner).Fig6a)},
	{"fig6b", summaryTable("Fig. 6(b): structure sizes (speedup over EOLE_4_60)", (*Runner).Fig6b)},
	{"partial", func(r *Runner) (engine.Report, error) {
		return strideReport("Partial strides (Section VI-B(a))", r.PartialStrides()), nil
	}},
	{"fig7a", summaryTable("Fig. 7(a): recovery policies (speedup over EOLE_4_60)", (*Runner).Fig7a)},
	{"fig7b", summaryTable("Fig. 7(b): speculative window size (speedup over EOLE_4_60)", (*Runner).Fig7b)},
	{"table3", func(*Runner) (engine.Report, error) {
		return table3Report("Table III: final predictor configurations", Table3()), nil
	}},
	{"fig8", seriesTable("Fig. 8: final configurations over Baseline_6_60", (*Runner).Fig8)},
	{"ablation", summaryTable("Ablation: predictor lineages over Baseline_6_60", (*Runner).Ablations)},
	{"probe", func(r *Runner) (engine.Report, error) {
		curves, err := r.ProbeCurves()
		return probeReport("Probe cliff curves: accuracy vs geometry pressure", curves), err
	}},
}

// ExperimentIDs lists the sweep identifiers usable with cmd/bebop-sweep.
func ExperimentIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Report runs the named experiment and returns it as a format-independent
// engine.Report, the one table every output format renders.
func (r *Runner) Report(id string) (engine.Report, error) {
	for _, e := range registry {
		if e.id != id {
			continue
		}
		rep, err := e.run(r)
		if err == nil {
			err = r.err
		}
		if err != nil {
			return engine.Report{}, err
		}
		rep.ID = e.id
		return rep, nil
	}
	return engine.Report{}, fmt.Errorf("experiments: %w", util.UnknownName("experiment", id, ExperimentIDs()))
}

// Reports runs several experiments and collects their reports.
func (r *Runner) Reports(ids []string) ([]engine.Report, error) {
	out := make([]engine.Report, 0, len(ids))
	for _, id := range ids {
		rep, err := r.Report(id)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// seriesTable and summaryTable adapt a figure method to a registry entry.
func seriesTable(title string, fig func(*Runner) []Series) func(*Runner) (engine.Report, error) {
	return func(r *Runner) (engine.Report, error) { return seriesReport(title, fig(r)), nil }
}

func summaryTable(title string, fig func(*Runner) []Series) func(*Runner) (engine.Report, error) {
	return func(r *Runner) (engine.Report, error) { return summaryReport(title, fig(r)), nil }
}

func table2Report(title string, rows []BenchIPC) engine.Report {
	rep := engine.Report{
		Title:   title,
		Columns: []string{"suite", "type", "ipc", "paper_ipc"},
	}
	for _, r := range rows {
		typ := "FP"
		if r.INT {
			typ = "INT"
		}
		rep.Rows = append(rep.Rows, engine.Row{Label: r.Bench, Cells: []any{
			engine.Str(r.Suite), engine.Str(typ), engine.Num(r.IPC), engine.Num(r.PaperIPC),
		}})
	}
	return rep
}

// seriesReport lays series out like Fig. 5/8: one row per benchmark, one
// column per series, plus a final gmean row.
func seriesReport(title string, series []Series) engine.Report {
	rep := engine.Report{Title: title}
	for _, s := range series {
		rep.Columns = append(rep.Columns, s.Name)
	}
	if len(series) == 0 {
		return rep
	}
	for i, b := range series[0].Bench {
		row := engine.Row{Label: b}
		for _, s := range series {
			v := 0.0
			if i < len(s.Speedup) {
				v = s.Speedup[i]
			}
			row.Cells = append(row.Cells, engine.Num(v))
		}
		rep.Rows = append(rep.Rows, row)
	}
	gm := engine.Row{Label: "gmean"}
	for _, s := range series {
		gm.Cells = append(gm.Cells, engine.Num(s.Summary.GMean))
	}
	rep.Rows = append(rep.Rows, gm)
	return rep
}

// summaryReport lays series out like Fig. 6/7: one row per configuration
// with its box-plot summary.
func summaryReport(title string, series []Series) engine.Report {
	rep := engine.Report{
		Title:   title,
		Columns: []string{"min", "q1", "median", "q3", "max", "gmean"},
	}
	for _, s := range series {
		rep.Rows = append(rep.Rows, engine.Row{Label: s.Name, Cells: []any{
			engine.Num(s.Summary.Min), engine.Num(s.Summary.Q1), engine.Num(s.Summary.Median),
			engine.Num(s.Summary.Q3), engine.Num(s.Summary.Max), engine.Num(s.Summary.GMean),
		}})
	}
	return rep
}

func strideReport(title string, rows []StrideRow) engine.Report {
	rep := engine.Report{
		Title:   title,
		Columns: []string{"gmean", "min", "size_kb"},
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, engine.Row{Label: fmt.Sprintf("%d-bit", r.Bits), Cells: []any{
			engine.Num(r.Series.Summary.GMean), engine.Num(r.Series.Summary.Min), engine.Num(r.StorageKB),
		}})
	}
	return rep
}

func table3Report(title string, rows []StorageRow) engine.Report {
	rep := engine.Report{
		Title:   title,
		Columns: []string{"npred", "base_entries", "specwin", "stride_bits", "kb", "paper_kb"},
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, engine.Row{Label: r.Name, Cells: []any{
			engine.Int(r.NPred), engine.Int(r.BaseEnts), engine.Int(r.WinSize),
			engine.Int(r.StrideBit), engine.Num(r.KB), engine.Num(r.PaperKB),
		}})
	}
	return rep
}
