// Package pipeline implements the cycle-level superscalar processor model
// of Table I: an aggressive 4GHz, 6-issue (4-issue under EOLE) pipeline
// with a deep in-order front end, a unified 60-entry instruction queue, a
// 192-entry ROB, load/store queues with store-set memory dependence
// prediction, a TAGE branch predictor, a three-level memory hierarchy, and
// optional value prediction with commit-time validation and squash
// recovery, plus the EOLE early/late execution stages.
//
// The model is trace-driven: the workload stream supplies decoded
// instructions with architectural values, and the pipeline replays them
// cycle by cycle, charging branch redirects, value-misprediction squashes,
// structural hazards and memory latencies. Wrong-path instructions are not
// simulated; their first-order cost — the redirect/refill penalty — is.
package pipeline

import (
	"bebop/internal/branch"
	"bebop/internal/cache"
)

// FUConfig gives the functional unit mix (Table I: 4 ALU (1 cycle),
// 1 MulDiv (3/25, divide unpipelined), 2 FP (3), 2 FPMulDiv (5/10,
// divide unpipelined), 2 load/store ports plus 1 store-only port).
type FUConfig struct {
	ALU       int
	MulDiv    int
	FP        int
	FPMul     int
	LdStPorts int // ports usable by loads or stores
	StPorts   int // additional store-only ports
}

// DefaultFUConfig matches Table I.
func DefaultFUConfig() FUConfig {
	return FUConfig{ALU: 4, MulDiv: 1, FP: 2, FPMul: 2, LdStPorts: 2, StPorts: 1}
}

// Config assembles one processor configuration. The paper's named models:
//
//   - Baseline_6_60:    IssueWidth 6, no VP, no EOLE
//   - Baseline_VP_6_60: IssueWidth 6, VP, no EOLE
//   - EOLE_4_60:        IssueWidth 4, VP, EOLE
type Config struct {
	// Name labels the configuration in reports.
	Name string

	// FetchBlocksPerCycle is how many 16-byte blocks fetch may read per
	// cycle (2, potentially over one taken branch).
	FetchBlocksPerCycle int
	// FetchWidth caps µ-ops entering the decode queue per cycle (8).
	FetchWidth int
	// DispatchWidth caps µ-ops renamed/dispatched per cycle (8).
	DispatchWidth int
	// CommitWidth caps µ-ops retired per cycle (8).
	CommitWidth int
	// IssueWidth caps µ-ops issued to functional units per cycle.
	IssueWidth int

	// FrontEndDepth is the fetch-to-dispatch latency in cycles; with the
	// 5-cycle back end it yields the 20-cycle minimum misprediction
	// penalty of Table I.
	FrontEndDepth int
	// FetchQueueSize bounds the in-flight front end (decode queue) in
	// µ-ops; fetch stalls when it is full.
	FetchQueueSize int
	// MinFetchToCommit is the minimum fetch-to-commit latency: 19 without
	// VP (no validation stage), 20/21 with VP/EOLE.
	MinFetchToCommit int

	// ROBSize, IQSize, LQSize, SQSize are the window structure capacities
	// (192/60/72/48).
	ROBSize, IQSize, LQSize, SQSize int

	// FU is the functional unit mix.
	FU FUConfig

	// BranchCfg configures the TAGE predictor; BTBEntries/BTBWays/RASEntries
	// size the target predictors.
	BranchCfg  branch.TAGEConfig
	BTBEntries int
	BTBWays    int
	RASEntries int

	// MemCfg configures the cache hierarchy.
	MemCfg cache.HierarchyConfig

	// StoreSetEntries sizes the store-set predictor tables (1K).
	StoreSetEntries int

	// VP is the value prediction infrastructure; nil disables VP. With
	// VP set, load-immediate µ-ops execute in the front end using the VP
	// write ports (Section II-B3).
	VP VP
	// EOLE enables the Early/Late execution stages; requires VP.
	EOLE bool

	// CollectH2P enables per-PC hard-to-predict attribution: every branch
	// and value misprediction in the measured window is charged to its
	// static PC and Result.H2P reports the top-N offenders. Attribution
	// is an observer — it never changes timing or any other statistic.
	CollectH2P bool
}

// DefaultConfig returns the Baseline_6_60 configuration of Table I.
func DefaultConfig() Config {
	return Config{
		Name:                "Baseline_6_60",
		FetchBlocksPerCycle: 2,
		FetchWidth:          8,
		DispatchWidth:       8,
		CommitWidth:         8,
		IssueWidth:          6,
		FrontEndDepth:       15,
		FetchQueueSize:      8 * 15,
		MinFetchToCommit:    19,
		ROBSize:             192,
		IQSize:              60,
		LQSize:              72,
		SQSize:              48,
		FU:                  DefaultFUConfig(),
		BranchCfg:           branch.DefaultTAGEConfig(),
		BTBEntries:          8192,
		BTBWays:             2,
		RASEntries:          32,
		MemCfg:              cache.DefaultHierarchyConfig(),
		StoreSetEntries:     1024,
	}
}

// WithVP returns a copy of the config with value prediction attached
// (Baseline_VP-style: VP with commit-time validation, no EOLE).
func (c Config) WithVP(vp VP) Config {
	c.VP = vp
	c.MinFetchToCommit = 20
	if c.Name == "Baseline_6_60" {
		c.Name = "Baseline_VP_6_60"
	}
	return c
}

// WithEOLE returns a copy of the config with EOLE enabled and the issue
// width reduced (EOLE_4_60 when width is 4).
func (c Config) WithEOLE(issueWidth int) Config {
	c.EOLE = true
	c.IssueWidth = issueWidth
	c.MinFetchToCommit = 21
	c.Name = "EOLE_4_60"
	return c
}
