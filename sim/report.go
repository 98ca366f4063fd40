package sim

import (
	"fmt"

	"bebop/internal/pipeline"
)

// ReportSchemaVersion is the current Report JSON schema. Bump it when a
// field is added, renamed or changes meaning, so result files state
// which schema they were written under.
//
// v2 added the optional "sampling" block (sampled-simulation estimates
// with confidence intervals); every v1 field is unchanged.
//
// v3 added the optional "telemetry" block (run phase spans and per-PC
// hard-to-predict misprediction attribution, present only for runs
// executed with WithTelemetry); every v2 field is unchanged.
const ReportSchemaVersion = 3

// Report is the stable result of one simulation run: pipeline counters,
// derived rates and value-prediction statistics, flattened into one
// schema-versioned struct with an explicit JSON encoding. Reports are
// deterministic: the same validated RunSpec always produces a
// bit-identical Report, which is what makes them cacheable, diffable
// and safe to compare across machines.
type Report struct {
	// SchemaVersion is ReportSchemaVersion.
	SchemaVersion int `json:"schema_version"`

	// Spec is the normalized RunSpec that produced this report —
	// replaying it (locally or through POST /v1/runs) reproduces the
	// report bit-identically. For server responses it also shows the
	// budget actually used after server-side clamping.
	Spec RunSpec `json:"spec"`

	// Config is the resolved pipeline model name, e.g.
	// "EOLE_4_60/Medium"; Workload is the resolved workload name.
	Config   string `json:"config"`
	Workload string `json:"workload"`

	// Core run counters (measured window only).
	Cycles int64   `json:"cycles"`
	Insts  uint64  `json:"insts"`
	UOps   uint64  `json:"uops"`
	IPC    float64 `json:"ipc"`
	UPC    float64 `json:"upc"`

	// Branch prediction.
	BranchMispredicts uint64  `json:"branch_mispredicts"`
	BranchMPKI        float64 `json:"branch_mpki"`
	BTBMisses         uint64  `json:"btb_misses"`

	// Memory hierarchy.
	L1DMisses       uint64 `json:"l1d_misses"`
	L1DMSHRMerges   uint64 `json:"l1d_mshr_merges"`
	L2Misses        uint64 `json:"l2_misses"`
	L2MSHRMerges    uint64 `json:"l2_mshr_merges"`
	MemOrderFlushes uint64 `json:"mem_order_flushes"`

	// Squash traffic.
	SquashedUOps     uint64 `json:"squashed_uops"`
	ValueMispredicts uint64 `json:"value_mispredicts"`

	// EOLE early/late execution (Section V).
	EarlyExecuted uint64 `json:"early_executed"`
	LateExecuted  uint64 `json:"late_executed"`
	FreeLoadImms  uint64 `json:"free_load_imms"`

	// VPStorageBits is the value predictor storage budget (0 without VP).
	VPStorageBits int `json:"vp_storage_bits"`

	// VP carries the value prediction statistics.
	VP VPReport `json:"vp"`

	// Sampling is present only for sampled runs (RunSpec.Sampling): the
	// counters above then aggregate the measured intervals, IPC is the
	// mean of per-interval IPCs, and this block carries the confidence
	// interval around it.
	Sampling *SamplingReport `json:"sampling,omitempty"`

	// Telemetry is present only for runs executed with WithTelemetry:
	// wall-clock phase spans and per-PC H2P misprediction attribution.
	// It is an observation of the run, not part of its identity — every
	// other field stays bit-identical whether or not telemetry is on,
	// and span timings legitimately vary between identical runs.
	Telemetry *TelemetryReport `json:"telemetry,omitempty"`
}

// SamplingReport is the sampled-simulation slice of a Report.
type SamplingReport struct {
	// The normalized sampling parameters the run used.
	Intervals     int   `json:"intervals"`
	IntervalInsts int64 `json:"interval_insts"`
	WarmupInsts   int64 `json:"warmup_insts"`
	DetailWarmup  int64 `json:"detail_warmup"`
	// CheckpointsUsed counts the intervals the side-file, as found,
	// could restore: a provenance count. An interval below the file's
	// first point warms from instruction 0 instead, so the other
	// statistics do not depend on it.
	CheckpointsUsed int `json:"checkpoints_used"`
	// IPCMean is the mean of per-interval IPCs (equal to the report's
	// IPC field); IPCCI95 is the Student-t 95% confidence half-width.
	IPCMean   float64 `json:"ipc_mean"`
	IPCStdDev float64 `json:"ipc_stddev"`
	IPCCI95   float64 `json:"ipc_ci95"`
	// IntervalIPCs holds each interval's IPC in interval order.
	IntervalIPCs []float64 `json:"interval_ipcs"`
}

// VPReport is the value-prediction slice of a Report.
type VPReport struct {
	// Eligible counts retired µ-ops that were prediction candidates;
	// Attributed those that received a prediction; Used those whose
	// prediction was confident (written to the PRF); UsedCorrect the
	// used predictions that matched the architectural value.
	Eligible    uint64 `json:"eligible"`
	Attributed  uint64 `json:"attributed"`
	Used        uint64 `json:"used"`
	UsedCorrect uint64 `json:"used_correct"`
	// Speculative window activity (Section IV).
	SpecWindowHits   uint64 `json:"spec_window_hits"`
	SpecWindowProbes uint64 `json:"spec_window_probes"`
	// Coverage is Used/Eligible; Accuracy is UsedCorrect/Used (0 when
	// nothing was used).
	Coverage float64 `json:"coverage"`
	Accuracy float64 `json:"accuracy"`
}

// newReport flattens a pipeline result into the public schema.
func newReport(spec RunSpec, workloadName string, r pipeline.Result) Report {
	return Report{
		SchemaVersion: ReportSchemaVersion,
		Spec:          spec,
		Config:        r.Config,
		Workload:      workloadName,

		Cycles: r.Cycles,
		Insts:  r.Insts,
		UOps:   r.UOps,
		IPC:    r.IPC,
		UPC:    r.UPC,

		BranchMispredicts: r.BrMispredicts,
		BranchMPKI:        r.BrMispPKI,
		BTBMisses:         r.BTBMisses,

		L1DMisses:       r.L1DMisses,
		L1DMSHRMerges:   r.L1DMSHRMerges,
		L2Misses:        r.L2Misses,
		L2MSHRMerges:    r.L2MSHRMerges,
		MemOrderFlushes: r.MemOrderFlushes,

		SquashedUOps:     r.SquashedUOps,
		ValueMispredicts: r.ValueMispredicts,

		EarlyExecuted: r.EarlyExecuted,
		LateExecuted:  r.LateExecuted,
		FreeLoadImms:  r.FreeLoadImms,

		VPStorageBits: r.StorageBits,
		VP: VPReport{
			Eligible:         r.VP.Eligible,
			Attributed:       r.VP.Attributed,
			Used:             r.VP.Used,
			UsedCorrect:      r.VP.UsedCorrect,
			SpecWindowHits:   r.VP.SpecWindowHits,
			SpecWindowProbes: r.VP.SpecWindowProbes,
			Coverage:         r.VP.Coverage(),
			Accuracy:         r.VP.Accuracy(),
		},
	}
}

// VPStorageKB is the value predictor storage budget in kilobytes.
func (r Report) VPStorageKB() float64 { return float64(r.VPStorageBits) / 8 / 1024 }

// VPStorage renders the storage budget like "32.76KB".
func (r Report) VPStorage() string { return fmt.Sprintf("%.2fKB", r.VPStorageKB()) }

// SpeedupOver returns cycles(base)/cycles(r), the per-benchmark speedup
// metric used throughout the paper's figures (0 if r took no cycles).
func (r Report) SpeedupOver(base Report) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}
