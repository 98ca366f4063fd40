package pipeline

import (
	"bebop/internal/branch"
	"bebop/internal/predictor"
)

// VP is the value prediction infrastructure seen by the pipeline. Two
// implementations exist: InstVP (per-instruction prediction with an
// idealistic speculative window, Section VI-A) and bebop.BlockVP (the
// block-based BeBoP infrastructure with D-VTAGE, speculative window and
// FIFO update queue, Sections II–IV).
type VP interface {
	// Name identifies the infrastructure in reports.
	Name() string
	// OnFetchBlock is called once per fetched block occurrence, in fetch
	// order, with the µ-ops fetched from that block. The implementation
	// attributes predictions by setting Predicted/PredValue/PredConfident
	// on eligible µ-ops.
	OnFetchBlock(blockPC, firstSeq uint64, hist *branch.History, uops []*UOp)
	// OnRetire is called for every retired µ-op in program order so the
	// predictor trains on architectural values.
	OnRetire(u *UOp)
	// OnSquash is called for every squashed µ-op (youngest first) so
	// in-flight prediction state can be reclaimed.
	OnSquash(u *UOp)
	// OnFlush is called once after a squash completes. flushSeq is the
	// youngest surviving sequence number and newBlockPC the fetch block
	// of the next instruction to be fetched, so block-based
	// implementations can apply their recovery policy (Section IV-A).
	OnFlush(flushSeq uint64, newBlockPC uint64)
	// StorageBits returns the infrastructure storage budget in bits.
	StorageBits() int
	// Stats returns prediction counters.
	Stats() VPStats
	// ResetStats zeroes the prediction counters (warmup boundary); trained
	// predictor state is kept.
	ResetStats()
}

// VPStats counts value prediction events.
type VPStats struct {
	// Eligible counts retired µ-ops that were candidates for prediction.
	Eligible uint64
	// Attributed counts retired µ-ops that received a prediction.
	Attributed uint64
	// Used counts retired µ-ops whose prediction was confident (written
	// to the PRF and consumed by dependents).
	Used uint64
	// UsedCorrect counts used predictions that matched the architectural
	// value; Used-UsedCorrect is the squash count.
	UsedCorrect uint64
	// SpecWindowHits/Probes count speculative window activity.
	SpecWindowHits, SpecWindowProbes uint64
}

// Add sums o's counters into s.
func (s *VPStats) Add(o VPStats) {
	s.Eligible += o.Eligible
	s.Attributed += o.Attributed
	s.Used += o.Used
	s.UsedCorrect += o.UsedCorrect
	s.SpecWindowHits += o.SpecWindowHits
	s.SpecWindowProbes += o.SpecWindowProbes
}

// Coverage returns used predictions per eligible µ-op.
func (s VPStats) Coverage() float64 {
	if s.Eligible == 0 {
		return 0
	}
	return float64(s.Used) / float64(s.Eligible)
}

// Accuracy returns correct predictions per used prediction. A run with no
// used predictions has no accuracy to report and returns 0 — returning 1
// here made reports claim 100% accuracy for configurations that never
// predicted anything.
func (s VPStats) Accuracy() float64 {
	if s.Used == 0 {
		return 0
	}
	return float64(s.UsedCorrect) / float64(s.Used)
}

// InstVP drives a per-instruction value predictor with the idealistic
// infrastructure of the Section VI-A potential study: every eligible µ-op
// is predicted individually, and stride-based predictors receive the
// oracle previous-instance value, equivalent to an unbounded
// instruction-grained speculative window with perfect repair.
type InstVP struct {
	P     predictor.Predictor
	stats VPStats
	// warm holds WarmFetchBlock's predictions for one block, reused.
	warm []predictor.Outcome
}

// NewInstVP wraps a per-instruction predictor.
func NewInstVP(p predictor.Predictor) *InstVP { return &InstVP{P: p} }

// Name implements VP.
func (v *InstVP) Name() string { return v.P.Name() }

// RegisterFolds forwards fold registration to the wrapped predictor when
// it folds global history (VTAGE-family predictors do; last-value and
// stride predictors do not).
func (v *InstVP) RegisterFolds(h *branch.History) {
	if fr, ok := v.P.(interface{ RegisterFolds(*branch.History) }); ok {
		fr.RegisterFolds(h)
	}
}

// OnFetchBlock implements VP.
func (v *InstVP) OnFetchBlock(_, _ uint64, hist *branch.History, uops []*UOp) {
	for _, u := range uops {
		if !u.Eligible {
			continue
		}
		o := v.P.Predict(u.PC, int(u.UopIdx), hist, u.PrevValue, u.HasPrev)
		u.Outcome = o
		u.Predicted = o.Predicted
		u.PredValue = o.Value
		u.PredConfident = o.Predicted && o.Confident
	}
}

// OnRetire implements VP.
func (v *InstVP) OnRetire(u *UOp) {
	if !u.Eligible {
		return
	}
	v.stats.Eligible++
	if u.Predicted {
		v.stats.Attributed++
		if u.PredConfident {
			v.stats.Used++
			if u.PredValue == u.Value {
				v.stats.UsedCorrect++
			}
		}
		v.P.Update(&u.Outcome, u.Value)
	}
}

// WarmFetchBlock implements VPWarmer: during functional warming the
// block's eligible µ-ops are predicted, then each is trained on its
// architectural value, in the order OnFetchBlock and OnRetire would
// see them — the steady-state predict-at-fetch / train-at-retire cycle
// collapsed to a point, leaving no in-flight state. Stats are untouched
// (warming precedes the measurement window).
func (v *InstVP) WarmFetchBlock(_ uint64, hist *branch.History, uops []WarmUOp) {
	v.warm = v.warm[:0]
	for i := range uops {
		if w := &uops[i]; w.Eligible {
			v.warm = append(v.warm, v.P.Predict(w.PC, int(w.UopIdx), hist, w.PrevValue, w.HasPrev))
		}
	}
	k := 0
	for i := range uops {
		if w := &uops[i]; w.Eligible {
			if o := &v.warm[k]; o.Predicted {
				v.P.Update(o, w.Value)
			}
			k++
		}
	}
}

// OnSquash implements VP.
func (v *InstVP) OnSquash(*UOp) {}

// OnFlush implements VP. The idealistic infrastructure repairs itself
// perfectly; the oracle PrevValue provides post-flush consistency.
func (v *InstVP) OnFlush(uint64, uint64) {}

// StorageBits implements VP.
func (v *InstVP) StorageBits() int { return v.P.StorageBits() }

// Stats implements VP.
func (v *InstVP) Stats() VPStats { return v.stats }

// ResetStats implements VP.
func (v *InstVP) ResetStats() { v.stats = VPStats{} }
