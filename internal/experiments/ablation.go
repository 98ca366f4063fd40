package experiments

import "bebop/internal/core"

// Ablations compares the paper's predictor lineage against the FCM family
// it displaced (Section VII): VTAGE vs an order-4 FCM of similar size, and
// D-VTAGE vs D-FCM. The paper's claim — context through *global branch
// history* (VTAGE) performs at least as well as context through *local
// value history* (FCM) without the two-level prediction critical path —
// should hold as a gmean ordering. All runs are Baseline_VP_6_60 over
// Baseline_6_60.
func (r *Runner) Ablations() []Series {
	return r.over(core.Baseline(), predictors("LVP", "Stride", "FCM", "VTAGE", "D-FCM", "D-VTAGE")...)
}
