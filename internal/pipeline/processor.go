package pipeline

import (
	"bebop/internal/branch"
	"bebop/internal/cache"
	"bebop/internal/isa"
	"bebop/internal/memdep"
	"bebop/internal/ring"
)

// Processor is the cycle-level superscalar model. Create one with New,
// drive it with Run, and read the Result. A finished Processor can be
// recycled for another job with Reset, which reuses every table and queue
// allocation; together with the ring-buffer queues and the dynInst/UOp
// pool this keeps the simulation loop allocation-free in steady state.
type Processor struct {
	cfg    Config
	stream isa.Stream

	now    int64
	seqCtr uint64

	hist branch.History
	tage *branch.TAGE
	btb  *branch.BTB
	ras  *branch.RAS
	mem  *cache.Hierarchy
	sset *memdep.StoreSets

	// pending holds squashed instructions awaiting refetch, oldest first;
	// refetch drains it before reading new instructions from the stream.
	pending    ring.Ring[*dynInst]
	streamDone bool

	// Front-end state.
	fetchStallUntil    int64
	pendingRedirectSeq uint64
	feQ                ring.Ring[*UOp]

	// Open fetch-block occurrence (may span cycles on width limits).
	blockOpen     bool
	blockPC       uint64
	blockFirstSeq uint64
	blockUOps     []*UOp

	// Out-of-order structures.
	rob ring.Ring[*UOp]
	lq  ring.Ring[*UOp]
	sq  ring.Ring[*UOp]

	// The issue queue (see issue.go): iqCount µ-ops hold an IQ entry
	// (InIQ); each sits on a producer's wait list, in the timed heap or
	// on readyQ, the age-ordered list of µ-ops that may issue now.
	iqCount int
	readyQ  []*UOp
	timed   timedHeap

	renameTable [isa.NumArchRegs]uint64
	inflight    []*UOp // ring indexed by Seq & (len-1)

	// Unpipelined divider busy-until cycles.
	divBusyUntil, fpDivBusyUntil int64

	instPool []*dynInst
	// uopSlab is the bump allocator newUOp draws from (hot-path data
	// locality; see newUOp).
	uopSlab []UOp

	// Reusable scratch buffers (issueStage violation checks, flushFrom
	// squash collection).
	issuedStores  []*UOp
	squashScratch []*dynInst

	// fwdStore carries the forwarding store found by loadMayIssue to
	// executeLoad within the same issue decision (one store-queue walk
	// instead of two).
	fwdStore *UOp

	// Warming-mode state (see modes.go): a synthetic clock for cache
	// accesses and the open fetch-block occurrence being accumulated for
	// the value predictor's warming path.
	warmingClock     int64
	warmingBlockPC   uint64
	warmingBlockOpen bool
	warmingUOps      []WarmUOp
	// stateBuf is the buffer Snapshot encodes into, kept across points;
	// each point copies its state out at its length. A point's size
	// follows what warming has filled, so a buffer sized from the last
	// point would regrow, or leave room to spare.
	stateBuf []byte

	stats Stats
	// H2P attribution tables (nil unless cfg.CollectH2P); cleared at the
	// warmup boundary so they cover exactly the measured window.
	h2pBr  *h2pTable
	h2pVal *h2pTable
	// Measurement window: every counter Result reports is zeroed at the
	// warmup boundary, which warmCycles records, mirroring the paper's
	// "warm 50M, measure 100M" methodology.
	warmed     bool
	warmCycles int64
}

// Stats accumulates run statistics.
type Stats struct {
	Cycles           int64
	Insts            uint64
	UOps             uint64
	FetchedUOps      uint64
	BrCondRetired    uint64
	BrMispredicts    uint64
	BTBMisses        uint64
	ValueMispredicts uint64
	MemOrderFlushes  uint64
	SquashedUOps     uint64
	EarlyExecuted    uint64
	LateExecuted     uint64
	FreeLoadImms     uint64
	LoadsExecuted    uint64
	StoreForwards    uint64
}

// Add sums o's counters into s: a sampled run's aggregate is the sum of
// its intervals' counters.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Insts += o.Insts
	s.UOps += o.UOps
	s.FetchedUOps += o.FetchedUOps
	s.BrCondRetired += o.BrCondRetired
	s.BrMispredicts += o.BrMispredicts
	s.BTBMisses += o.BTBMisses
	s.ValueMispredicts += o.ValueMispredicts
	s.MemOrderFlushes += o.MemOrderFlushes
	s.SquashedUOps += o.SquashedUOps
	s.EarlyExecuted += o.EarlyExecuted
	s.LateExecuted += o.LateExecuted
	s.FreeLoadImms += o.FreeLoadImms
	s.LoadsExecuted += o.LoadsExecuted
	s.StoreForwards += o.StoreForwards
}

// Result is the outcome of a simulation run.
type Result struct {
	Config string
	Stats
	IPC       float64 // instructions per cycle
	UPC       float64 // µ-ops per cycle
	VP        VPStats
	BrMispPKI float64 // branch mispredictions per kilo-instruction
	// H2P is per-PC misprediction attribution; nil unless
	// Config.CollectH2P (a pointer so Result stays comparable with ==).
	H2P       *H2PResult
	L1DMisses uint64
	L2Misses  uint64
	// MSHR merges per level: misses that coalesced into an already
	// in-flight fill instead of starting a new one — secondary-miss
	// traffic that the miss counts alone leave invisible.
	L1DMSHRMerges uint64
	L2MSHRMerges  uint64
	StorageBits   int
}

const inflightRing = 2048

// New builds a processor for cfg over the given instruction stream.
func New(cfg Config, stream isa.Stream) *Processor {
	p := &Processor{
		cfg:      cfg,
		stream:   stream,
		tage:     branch.NewTAGE(cfg.BranchCfg),
		btb:      branch.NewBTB(cfg.BTBEntries, cfg.BTBWays),
		ras:      branch.NewRAS(cfg.RASEntries),
		mem:      cache.NewHierarchy(cfg.MemCfg),
		sset:     memdep.New(cfg.StoreSetEntries),
		inflight: make([]*UOp, inflightRing),
	}
	p.seqCtr = 1
	p.initHistoryFolds()
	p.initH2P()
	return p
}

// initH2P sizes the attribution tables to the config: allocated (or
// cleared in place on a pooled processor) when CollectH2P, dropped
// otherwise.
func (p *Processor) initH2P() {
	if !p.cfg.CollectH2P {
		p.h2pBr, p.h2pVal = nil, nil
		return
	}
	if p.h2pBr == nil {
		p.h2pBr = &h2pTable{}
	} else {
		p.h2pBr.clear()
	}
	if p.h2pVal == nil {
		p.h2pVal = &h2pTable{}
	} else {
		p.h2pVal.clear()
	}
}

// initHistoryFolds attaches the incremental folded-register file to the
// global history, so the first fold of each (histLen, width) pair by a
// consumer — the TAGE branch predictor and, when it folds history, the
// value predictor — creates a register that later lookups read in O(1).
// Previous registers are dropped (reusing their allocations), so a
// pooled processor recycled across configurations carries exactly the
// current consumers' registers and every Push pays for those alone.
func (p *Processor) initHistoryFolds() {
	p.hist.EnableFolds()
	p.hist.ClearFolds()
}

// Reset rearms the processor for a fresh run of cfg over stream, reusing
// every allocation the previous run left behind: the ring-buffer queues,
// the dynInst/UOp pool and — when the table geometry is unchanged — the
// TAGE, BTB, cache and store-set arrays, which are cleared in place
// instead of reallocated. A Reset processor behaves identically to one
// built with New(cfg, stream); core.acquireProc uses this to recycle
// pooled processors across jobs.
func (p *Processor) Reset(cfg Config, stream isa.Stream) {
	// Predictor/cache tables: clear in place when the geometry matches,
	// rebuild otherwise.
	if cfg.BranchCfg == p.cfg.BranchCfg {
		p.tage.Reset()
	} else {
		p.tage = branch.NewTAGE(cfg.BranchCfg)
	}
	if cfg.BTBEntries == p.cfg.BTBEntries && cfg.BTBWays == p.cfg.BTBWays {
		p.btb.Reset()
	} else {
		p.btb = branch.NewBTB(cfg.BTBEntries, cfg.BTBWays)
	}
	if cfg.RASEntries == p.cfg.RASEntries {
		p.ras.Reset()
	} else {
		p.ras = branch.NewRAS(cfg.RASEntries)
	}
	if cfg.MemCfg == p.cfg.MemCfg {
		p.mem.Reset()
	} else {
		p.mem = cache.NewHierarchy(cfg.MemCfg)
	}
	if cfg.StoreSetEntries == p.cfg.StoreSetEntries {
		p.sset.Reset()
	} else {
		p.sset = memdep.New(cfg.StoreSetEntries)
	}

	p.cfg = cfg
	p.stream = stream
	p.now = 0
	p.seqCtr = 1
	p.hist.Reset()
	p.initHistoryFolds()
	p.initH2P()
	p.streamDone = false
	p.fetchStallUntil = 0
	p.pendingRedirectSeq = 0
	p.blockOpen = false
	p.blockPC = 0
	p.blockFirstSeq = 0
	p.blockUOps = p.blockUOps[:0]
	p.pending.Clear()
	p.feQ.Clear()
	p.rob.Clear()
	p.iqCount = 0
	clear(p.readyQ)
	p.readyQ = p.readyQ[:0]
	p.timed.reset()
	p.lq.Clear()
	p.sq.Clear()
	p.renameTable = [isa.NumArchRegs]uint64{}
	for i := range p.inflight {
		p.inflight[i] = nil
	}
	p.divBusyUntil, p.fpDivBusyUntil = 0, 0
	p.issuedStores = p.issuedStores[:0]
	p.squashScratch = p.squashScratch[:0]
	p.fwdStore = nil
	p.warmingClock = 0
	p.warmingBlockPC = 0
	p.warmingBlockOpen = false
	p.warmingUOps = p.warmingUOps[:0]
	p.stats = Stats{}
	p.warmed = false
	p.warmCycles = 0
}

// Release drops the finished job's stream and value predictor references
// so a parked processor does not pin them (a BlockVP carries full D-VTAGE
// tables) until the next Reset. The processor stays valid for Reset.
func (p *Processor) Release() {
	p.stream = nil
	p.cfg.VP = nil
}

// RunWarm simulates until the stream is exhausted and the pipeline
// drains, returning the result. maxCycles bounds runaway simulations
// (0 = no bound). The first warmupInsts retired instructions are
// excluded from all reported statistics: caches, branch predictor and
// value predictor train during warmup, and measurement starts only at
// the boundary (the methodology of Section V-C), where every reported
// counter is zeroed. With no detailed warmup the boundary is the first
// cycle, so nothing Warm counted before the call is reported either.
// The fetch block Warm left open is closed before the first cycle.
//
//bebop:hotpath
func (p *Processor) RunWarm(warmupInsts, maxCycles int64) Result {
	vpw, _ := p.cfg.VP.(VPWarmer)
	p.flushWarmingBlock(vpw)
	if warmupInsts <= 0 {
		p.markWarm()
	}
	for {
		p.commitStage()
		p.issueStage()
		p.dispatchStage()
		p.fetchStage()
		p.now++
		if !p.warmed && p.stats.Insts >= uint64(warmupInsts) {
			p.markWarm()
		}
		if p.streamDone && p.pending.Len() == 0 && p.feQ.Len() == 0 && p.rob.Len() == 0 {
			break
		}
		if maxCycles > 0 && p.now >= maxCycles {
			break
		}
	}
	p.stats.Cycles = p.now - p.warmCycles
	return p.result()
}

// markWarm starts the measured window: it zeroes every counter Result
// reports, so nothing counted before the boundary is reported.
func (p *Processor) markWarm() {
	p.warmed = true
	p.warmCycles = p.now
	p.stats = Stats{}
	p.mem.ResetStats()
	if p.h2pBr != nil {
		p.h2pBr.clear()
		p.h2pVal.clear()
	}
	if p.cfg.VP != nil {
		p.cfg.VP.ResetStats()
	}
}

func (p *Processor) result() Result {
	r := Result{
		Config:        p.cfg.Name,
		Stats:         p.stats,
		L1DMisses:     p.mem.L1D.Misses,
		L2Misses:      p.mem.L2.Misses,
		L1DMSHRMerges: p.mem.L1D.MSHRMerges,
		L2MSHRMerges:  p.mem.L2.MSHRMerges,
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Insts) / float64(r.Cycles)
		r.UPC = float64(r.UOps) / float64(r.Cycles)
	}
	if r.Insts > 0 {
		r.BrMispPKI = 1000 * float64(r.BrMispredicts) / float64(r.Insts)
	}
	if p.cfg.VP != nil {
		r.VP = p.cfg.VP.Stats()
		r.StorageBits = p.cfg.VP.StorageBits()
	}
	if p.h2pBr != nil {
		r.H2P = &H2PResult{
			Branches:         p.h2pBr.topN(defaultH2PTopN),
			Values:           p.h2pVal.topN(defaultH2PTopN),
			BranchPCsDropped: p.h2pBr.dropped,
			ValuePCsDropped:  p.h2pVal.dropped,
		}
	}
	flushTelemetry(&r.Stats)
	return r
}

// lookup returns the in-flight µ-op with the given seq, or nil if it has
// committed or been squashed.
func (p *Processor) lookup(seq uint64) *UOp {
	u := p.inflight[seq&(inflightRing-1)]
	if u != nil && u.Seq == seq && !u.Committed && !u.Squashed {
		return u
	}
	return nil
}

func classLatency(c isa.Class) int64 {
	switch c {
	case isa.ClassALU, isa.ClassBranch, isa.ClassNop:
		return 1
	case isa.ClassMul:
		return 3
	case isa.ClassDiv:
		return 25
	case isa.ClassFP:
		return 3
	case isa.ClassFPMul:
		return 5
	case isa.ClassFPDiv:
		return 10
	case isa.ClassStore:
		return 1
	case isa.ClassLoad:
		return 1 // plus the cache access, added at issue
	}
	return 1
}
