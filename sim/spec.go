package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"bebop/internal/core"
	"bebop/internal/experiments"
	"bebop/internal/predictor"
	"bebop/internal/specwindow"
	"bebop/internal/trace"
	"bebop/internal/util"
	"bebop/internal/workload"
	"bebop/internal/workload/probe"
)

// RunSpecSchemaVersion is the current RunSpec schema. Specs written by
// this package carry it; specs with a larger version are rejected so a
// new-schema file is never silently misread by an old binary.
//
// v2 added the optional "sampling" block (sampled simulation). v1 specs
// are a strict subset of v2 and are accepted unchanged.
const RunSpecSchemaVersion = 2

// SweepSpecSchemaVersion is the current SweepSpec schema.
const SweepSpecSchemaVersion = 1

// ErrInvalidSpec tags every spec-shape validation failure — malformed
// JSON, mutually exclusive fields, bad budgets, unsupported schema
// versions — so front ends can map the whole class to a client error
// with one errors.Is check. Unknown names are reported separately, as
// *UnknownNameError.
var ErrInvalidSpec = errors.New("invalid spec")

// DefaultInsts is the measured-instruction budget used when a spec or
// builder does not set one: 100K dynamic instructions per workload, the
// laptop-scale budget every CLI defaults to.
const DefaultInsts int64 = 100_000

// RunSpec is the declarative description of one simulation run: workload,
// processor configuration, value predictor and instruction budget. It is
// plain data — JSON round-trippable, diffable, committable — and is the
// one run description every front end consumes: `bebop-sim -spec`,
// `POST /v1/runs` on bebop-serve, and the Go builder (sim.New(...).Spec()
// serializes back to it). A RunSpec fully determines a Report: running
// the same spec twice, in-process or over HTTP, yields bit-identical
// results.
type RunSpec struct {
	// SchemaVersion is RunSpecSchemaVersion (0 is upgraded to it).
	SchemaVersion int `json:"schema_version"`

	// Exactly one of Workload, Trace and Profile selects what to run:
	// Workload names a catalog entry (a Table II synthetic benchmark or,
	// with TraceDir, a recorded trace), Trace is a .bbt file path, and
	// Profile embeds a custom synthetic benchmark inline; it needs a
	// name, NumLoops and DepDepth of at least 1, non-negative loop
	// bodies and trip counts, both log2 fields in [0, 63] and at most
	// 65,536 static instructions.
	Workload string   `json:"workload,omitempty"`
	Trace    string   `json:"trace,omitempty"`
	Profile  *Profile `json:"profile,omitempty"`

	// TraceDir adds a directory of .bbt traces to the workload catalog.
	TraceDir string `json:"trace_dir,omitempty"`

	// Config selects the pipeline model: "baseline", "baseline-vp",
	// "eole" or "eole-bebop". The shorthand "<config>/<predictor>"
	// (e.g. "eole-bebop/Medium", "baseline-vp/VTAGE") sets Predictor in
	// the same string; "eole/<Table III name>" is accepted as an alias
	// for "eole-bebop/<name>". Empty means "baseline" (or "eole-bebop"
	// when BeBoP is set).
	Config string `json:"config,omitempty"`

	// Predictor names the value predictor for baseline-vp (see
	// Predictors) or the Table III configuration for eole-bebop (see
	// BeBoPConfigs). Defaults: "D-VTAGE" for baseline-vp, "Medium" for
	// eole-bebop.
	Predictor string `json:"predictor,omitempty"`

	// BeBoP, when set, replaces the named Table III configuration with a
	// custom block-based predictor geometry (Config must be "eole-bebop"
	// or empty).
	BeBoP *BeBoPConfig `json:"bebop,omitempty"`

	// Insts is the measured dynamic instruction budget (0 = DefaultInsts).
	Insts int64 `json:"insts,omitempty"`

	// Warmup is the instruction budget that warms caches and predictors
	// before measurement starts. nil means Insts/2, the paper's
	// methodology; an explicit 0 measures from a cold pipeline.
	Warmup *int64 `json:"warmup,omitempty"`

	// Sampling, when set, estimates the measured region by SMARTS-style
	// sampled simulation instead of simulating it in full detail: evenly
	// spaced intervals are measured cycle-accurately after functional
	// warming, and the report gains an IPC mean with a confidence
	// interval (Report.Sampling). Requires RunSpec schema v2.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
}

// SamplingSpec configures sampled simulation (see core.RunSampled): the
// measured instruction budget is covered by Intervals evenly spaced
// detailed intervals instead of one continuous detailed run.
type SamplingSpec struct {
	// Intervals is the number of measurement intervals (0 = 20; at least
	// 2 are required for a confidence interval).
	Intervals int `json:"intervals,omitempty"`
	// IntervalInsts is the number of instructions measured in detail per
	// interval (0 = insts/(10*intervals): 10% detailed coverage).
	IntervalInsts int64 `json:"interval_insts,omitempty"`
	// Warmup is the functional-warming window before each interval
	// (0 = 8*interval_insts). Ignored for every interval when
	// Checkpoints is set: each interval's state is then continuous
	// warming from instruction 0, restored from the nearest side-file
	// point at or before its start, or warmed from 0 below the first.
	Warmup int64 `json:"warmup,omitempty"`
	// DetailWarmup is the number of detailed-but-unmeasured instructions
	// run between warming and measurement (0 = interval_insts/4).
	DetailWarmup int64 `json:"detail_warmup,omitempty"`
	// Checkpoints amortizes warming across runs through the trace's
	// .ckpt side-file: an existing valid side-file is restored from, a
	// missing or stale one is built (one continuous warming pass) and
	// written next to the trace. Only trace-backed workloads can carry
	// checkpoints.
	Checkpoints bool `json:"checkpoints,omitempty"`
}

// BeBoPConfig is a custom block-based D-VTAGE geometry, the exploration
// knobs of Section VI-B / Fig. 6-7 as data.
type BeBoPConfig struct {
	// NPred is the number of predictions per block entry (paper: 4-8;
	// at most 8).
	NPred int `json:"npred"`
	// BaseEntries and TaggedEntries size the D-VTAGE base component and
	// each of the six tagged components: powers of two up to 65,536.
	BaseEntries   int `json:"base_entries"`
	TaggedEntries int `json:"tagged_entries"`
	// StrideBits is the partial stride width (8, 16 or 64; at most 64).
	StrideBits int `json:"stride_bits"`
	// WindowSize bounds the speculative window: >0 entries (at most
	// 65,536), 0 disables it, <0 is unbounded (validated to -1).
	WindowSize int `json:"window_size"`
	// Policy is the squash recovery policy: one of Policies() ("Ideal",
	// "Repred", "DnRDnR", "DnRR"). Empty means "DnRDnR", the paper's
	// choice.
	Policy string `json:"policy,omitempty"`
}

// SweepSpec is the declarative description of an experiment sweep: which
// of the paper's tables/figures to regenerate, over which workloads, at
// what budget. Consumed by `bebop-sweep -spec` and `POST /v1/sweeps`.
type SweepSpec struct {
	// SchemaVersion is SweepSpecSchemaVersion (0 is upgraded to it).
	SchemaVersion int `json:"schema_version"`
	// Experiments lists experiment ids (see Experiments). Empty or
	// ["all"] selects every experiment.
	Experiments []string `json:"experiments,omitempty"`
	// Workloads restricts the sweep to a benchmark subset (empty = the
	// whole catalog).
	Workloads []string `json:"workloads,omitempty"`
	// Insts is the per-workload budget (0 = the runner's default).
	Insts int64 `json:"insts,omitempty"`
	// TraceDir adds a directory of .bbt traces to the workload catalog.
	TraceDir string `json:"trace_dir,omitempty"`
}

// DecodeRunSpec reads one JSON RunSpec. Unknown fields are errors, so a
// typo in a spec file fails loudly instead of silently running defaults.
func DecodeRunSpec(r io.Reader) (RunSpec, error) {
	var spec RunSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return RunSpec{}, fmt.Errorf("sim: %w: malformed RunSpec: %w", ErrInvalidSpec, err)
	}
	return spec, nil
}

// LoadRunSpec reads a JSON RunSpec file.
func LoadRunSpec(path string) (RunSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return RunSpec{}, err
	}
	defer f.Close()
	spec, err := DecodeRunSpec(f)
	if err != nil {
		return RunSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// DecodeSweepSpec reads one JSON SweepSpec (unknown fields are errors).
func DecodeSweepSpec(r io.Reader) (SweepSpec, error) {
	var spec SweepSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return SweepSpec{}, fmt.Errorf("sim: %w: malformed SweepSpec: %w", ErrInvalidSpec, err)
	}
	return spec, nil
}

// LoadSweepSpec reads a JSON SweepSpec file.
func LoadSweepSpec(path string) (SweepSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return SweepSpec{}, err
	}
	defer f.Close()
	spec, err := DecodeSweepSpec(f)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// JSON renders the spec as indented JSON (the canonical on-disk form).
func (s RunSpec) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Validate checks the spec and returns its normalized form: schema
// version stamped, config/predictor shorthands resolved to canonical
// names, defaults (instruction budget, warmup split, predictor) filled
// in. The normalized spec is what Run executes and what Report carries,
// so a validated spec round-trips through JSON unchanged. Errors are
// actionable: unknown names are *UnknownNameError values listing the
// valid names.
func (s RunSpec) Validate() (RunSpec, error) {
	out, _, err := s.validate()
	return out, err
}

// validate is Validate, additionally returning the workload catalog it
// built to check the workload name (nil for trace/profile runs), so Run
// can resolve the source without a second TraceDir scan.
func (s RunSpec) validate() (RunSpec, *workload.Catalog, error) {
	out := s
	switch {
	case out.SchemaVersion >= 0 && out.SchemaVersion <= RunSpecSchemaVersion:
		// Older schemas are strict subsets of the current one; normalize
		// them up so the spec a Report carries always states the schema it
		// was actually run under.
		out.SchemaVersion = RunSpecSchemaVersion
	default:
		return RunSpec{}, nil, fmt.Errorf("sim: %w: RunSpec schema_version %d is not supported by this binary (max %d)",
			ErrInvalidSpec, out.SchemaVersion, RunSpecSchemaVersion)
	}

	// Workload selection: exactly one of workload / trace / profile.
	selected := 0
	for _, set := range []bool{out.Workload != "", out.Trace != "", out.Profile != nil} {
		if set {
			selected++
		}
	}
	switch {
	case selected == 0:
		return RunSpec{}, nil, fmt.Errorf("sim: %w: no workload selected: set one of workload (a catalog name), trace (a .bbt path) or profile (an inline synthetic benchmark)", ErrInvalidSpec)
	case selected > 1:
		return RunSpec{}, nil, fmt.Errorf("sim: %w: workload, trace and profile are mutually exclusive; set exactly one", ErrInvalidSpec)
	}
	if out.Profile != nil {
		if err := checkProfile(out.Profile); err != nil {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: inline profile %w", ErrInvalidSpec, err)
		}
	}
	fileBacked := out.Trace != ""
	var cat *workload.Catalog
	switch {
	case probe.IsProbeName(out.Workload):
		// Probe workloads are synthesized from their name, not looked up
		// in the catalog: any "probe/<family>/<pressure>" is accepted.
		if _, err := probe.FromName(out.Workload); err != nil {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: %w", ErrInvalidSpec, err)
		}
	case out.Workload != "":
		var err error
		if cat, err = trace.Catalog(out.TraceDir); err != nil {
			return RunSpec{}, nil, err
		}
		src, ok := cat.Lookup(out.Workload)
		if !ok {
			return RunSpec{}, nil, util.UnknownName("workload", out.Workload, cat.Names())
		}
		_, fileBacked = src.(trace.FileSource)
	}

	// Budget.
	if out.Insts < 0 {
		return RunSpec{}, nil, fmt.Errorf("sim: %w: insts must be positive, got %d", ErrInvalidSpec, out.Insts)
	}
	if out.Insts == 0 {
		out.Insts = DefaultInsts
	}
	if out.Warmup == nil {
		w := out.Insts / 2
		out.Warmup = &w
	} else if *out.Warmup < 0 {
		return RunSpec{}, nil, fmt.Errorf("sim: %w: warmup must be >= 0, got %d", ErrInvalidSpec, *out.Warmup)
	} else {
		w := *out.Warmup // don't alias the caller's int
		out.Warmup = &w
	}

	// Sampling: fill the documented defaults, then check the intervals
	// actually fit the measured region. The normalized block is what Run
	// executes, so a validated spec round-trips unchanged.
	if out.Sampling != nil {
		sp := *out.Sampling // don't alias the caller's struct
		if sp.Intervals == 0 {
			sp.Intervals = 20
		}
		if sp.Intervals < 2 {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: sampling needs at least 2 intervals, got %d", ErrInvalidSpec, sp.Intervals)
		}
		if sp.IntervalInsts == 0 {
			sp.IntervalInsts = out.Insts / (10 * int64(sp.Intervals))
		}
		if sp.IntervalInsts < 1 {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: sampling interval_insts must be positive, got %d (budget %d too small for %d intervals?)",
				ErrInvalidSpec, sp.IntervalInsts, out.Insts, sp.Intervals)
		}
		if sp.Warmup < 0 || sp.DetailWarmup < 0 {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: sampling warmup and detail_warmup must be >= 0, got %d and %d",
				ErrInvalidSpec, sp.Warmup, sp.DetailWarmup)
		}
		if sp.Warmup == 0 {
			sp.Warmup = 8 * sp.IntervalInsts
		}
		if sp.DetailWarmup == 0 {
			sp.DetailWarmup = sp.IntervalInsts / 4
		}
		if stride := out.Insts / int64(sp.Intervals); sp.DetailWarmup+sp.IntervalInsts > stride {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: %d sampling intervals of %d+%d instructions do not fit the measured budget %d (stride %d)",
				ErrInvalidSpec, sp.Intervals, sp.DetailWarmup, sp.IntervalInsts, out.Insts, stride)
		}
		if sp.Checkpoints && !fileBacked {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: sampling checkpoints need a trace-backed workload; a synthetic one has no file to put the side-file next to", ErrInvalidSpec)
		}
		out.Sampling = &sp
	}

	// Configuration: resolve "<config>/<predictor>" shorthand, defaults
	// and aliases down to the canonical core names.
	cfg, pred := out.Config, out.Predictor
	if i := strings.IndexByte(cfg, '/'); i >= 0 {
		if pred != "" {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: config %q already names a predictor; drop the separate predictor field %q", ErrInvalidSpec, cfg, pred)
		}
		cfg, pred = cfg[:i], cfg[i+1:]
	}
	cfg = strings.ToLower(cfg)
	if cfg == "eole" && pred != "" {
		// "eole/Medium" reads naturally as EOLE with the Medium BeBoP
		// predictor; canonicalize it.
		cfg = "eole-bebop"
	}
	if out.BeBoP != nil {
		if cfg == "" {
			cfg = "eole-bebop"
		}
		if cfg != "eole-bebop" {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: a custom bebop geometry requires config \"eole-bebop\", got %q", ErrInvalidSpec, cfg)
		}
		if pred != "" {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: predictor %q and a custom bebop geometry are mutually exclusive; drop one", ErrInvalidSpec, pred)
		}
		bb := *out.BeBoP
		if bb.Policy == "" {
			bb.Policy = specwindow.PolicyDnRDnR.String()
		}
		policy, ok := specwindow.ParsePolicy(bb.Policy)
		if !ok {
			return RunSpec{}, nil, util.UnknownName("recovery policy", bb.Policy, Policies())
		}
		// Store the canonical spelling: "dnrdnr" and "DnRDnR" are one
		// geometry, so they must normalize to one spec and one name.
		// Likewise every negative window size means unbounded: -1.
		bb.Policy = policy.String()
		if bb.WindowSize < 0 {
			bb.WindowSize = -1
		}
		if err := checkGeometry(bb); err != nil {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: bebop geometry %+v: %w", ErrInvalidSpec, bb, err)
		}
		out.BeBoP = &bb
	}
	if cfg == "" {
		cfg = "baseline"
	}
	switch cfg {
	case "baseline", "eole":
		if pred != "" {
			return RunSpec{}, nil, fmt.Errorf("sim: %w: config %q takes no predictor, got %q (use baseline-vp or eole-bebop to choose one)", ErrInvalidSpec, cfg, pred)
		}
	case "baseline-vp":
		if pred == "" {
			pred = "D-VTAGE"
		}
		if _, err := core.NewInstPredictor(pred); err != nil {
			return RunSpec{}, nil, util.UnknownName("predictor", pred, core.AllPredictorNames())
		}
	case "eole-bebop":
		if out.BeBoP == nil {
			if pred == "" {
				pred = "Medium"
			}
			if _, err := core.TableIIIByName(pred); err != nil {
				return RunSpec{}, nil, util.UnknownName("Table III config", pred, core.TableIIINames())
			}
		}
	default:
		return RunSpec{}, nil, util.UnknownName("configuration", out.Config, Configs())
	}
	out.Config, out.Predictor = cfg, pred
	return out, cat, nil
}

// Bounds on what a spec may ask the simulator to build. Each sits far
// above what the paper uses, so they refuse only requests that would
// exhaust memory or overflow the generator's arithmetic.
const (
	// maxStaticInsts bounds an inline profile's static program, NumLoops
	// bodies of up to max(LoopBodyMin, LoopBodyMax) instructions; the
	// largest Table II profile has 1,152.
	maxStaticInsts = 1 << 16
	// maxIters bounds a profile's loop trip counts; Table II's largest is
	// 2,000.
	maxIters = 1 << 30
	// maxEntries bounds a custom geometry's table and speculative window
	// sizes; the paper's largest is 2,048.
	maxEntries = 1 << 16
)

// checkProfile refuses an inline profile the generator cannot build.
func checkProfile(p *Profile) error {
	body := max(p.LoopBodyMin, p.LoopBodyMax, 4) // the generator's shortest body is 4
	switch {
	case p.Name == "":
		return errors.New("needs a name")
	case p.NumLoops < 1 || p.DepDepth < 1:
		return fmt.Errorf("%q needs NumLoops and DepDepth of at least 1, got %d and %d", p.Name, p.NumLoops, p.DepDepth)
	case p.LoopBodyMin < 0 || p.LoopBodyMax < 0:
		return fmt.Errorf("%q needs non-negative LoopBodyMin and LoopBodyMax, got %d and %d", p.Name, p.LoopBodyMin, p.LoopBodyMax)
	case p.NumLoops > maxStaticInsts/body:
		return fmt.Errorf("%q has %d loops of up to %d instructions; NumLoops × LoopBodyMax must stay within %d",
			p.Name, p.NumLoops, body, maxStaticInsts)
	case p.IterMin < 0 || p.IterMax < 0 || p.IterMin > maxIters || p.IterMax > maxIters:
		return fmt.Errorf("%q needs IterMin and IterMax in [0, %d], got %d and %d", p.Name, maxIters, p.IterMin, p.IterMax)
	case p.FootprintLog2 < 0 || p.FootprintLog2 > 63 || p.HistEntropyLog2 < 0 || p.HistEntropyLog2 > 63:
		return fmt.Errorf("%q needs FootprintLog2 and HistEntropyLog2 in [0, 63], got %d and %d", p.Name, p.FootprintLog2, p.HistEntropyLog2)
	}
	return nil
}

// checkGeometry refuses a custom BeBoP geometry the predictor cannot
// build.
func checkGeometry(bb BeBoPConfig) error {
	switch {
	case bb.NPred < 1 || bb.NPred > predictor.MaxNPred:
		return fmt.Errorf("npred must be in [1, %d]", predictor.MaxNPred)
	case !util.IsPowerOfTwo(bb.BaseEntries) || !util.IsPowerOfTwo(bb.TaggedEntries) ||
		bb.BaseEntries > maxEntries || bb.TaggedEntries > maxEntries:
		return fmt.Errorf("base_entries and tagged_entries must be powers of two no larger than %d", maxEntries)
	case bb.StrideBits < 1 || bb.StrideBits > 64:
		return errors.New("stride_bits must be in [1, 64]")
	case bb.WindowSize > maxEntries:
		return fmt.Errorf("window_size must be at most %d", maxEntries)
	}
	return nil
}

// Validate checks the sweep spec and returns its normalized form:
// experiment ids lowercased and resolved ("all"/empty expands to every
// experiment), unknown ids and workloads rejected with the valid names.
func (s SweepSpec) Validate() (SweepSpec, error) {
	out := s
	switch {
	case out.SchemaVersion == 0:
		out.SchemaVersion = SweepSpecSchemaVersion
	case out.SchemaVersion < 0 || out.SchemaVersion > SweepSpecSchemaVersion:
		return SweepSpec{}, fmt.Errorf("sim: %w: SweepSpec schema_version %d is not supported by this binary (max %d)",
			ErrInvalidSpec, out.SchemaVersion, SweepSpecSchemaVersion)
	}
	if out.Insts < 0 {
		return SweepSpec{}, fmt.Errorf("sim: %w: insts must be positive, got %d", ErrInvalidSpec, out.Insts)
	}
	ids := make([]string, 0, len(out.Experiments))
	seen := make(map[string]bool)
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, id := range out.Experiments {
		id = strings.ToLower(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if id == "all" {
			for _, k := range experiments.ExperimentIDs() {
				add(k)
			}
			continue
		}
		known := false
		for _, k := range experiments.ExperimentIDs() {
			if id == k {
				known = true
				break
			}
		}
		if !known {
			return SweepSpec{}, util.UnknownName("experiment", id, experiments.ExperimentIDs())
		}
		add(id)
	}
	if len(ids) == 0 {
		ids = experiments.ExperimentIDs()
	}
	out.Experiments = ids
	// Workload names are NOT checked here: only the sweep session knows
	// its catalog (a -trace-dir scanned at Sweeper construction), so the
	// Sweeper validates them against it and reports the real name list.
	return out, nil
}
