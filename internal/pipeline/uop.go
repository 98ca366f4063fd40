package pipeline

import (
	"bebop/internal/branch"
	"bebop/internal/isa"
	"bebop/internal/predictor"
)

// UOp is one in-flight µ-op. Field order is part of the hot-path data
// layout: the select loop and the commit head check touch Seq, Class,
// DoneAt and the status flags every cycle, and dispatch and wakeup touch
// the operand state beside them, so those live together at the front of
// the struct (one cache line); per-instruction predictor metadata
// (Outcome, ~the size of a cache line by itself) sits at the cold tail.
type UOp struct {
	// Seq is the µ-op's sequence number, assigned at (re)fetch; it orders
	// everything in the machine. Refetched µ-ops receive fresh numbers.
	Seq uint64
	// dep[i] is the sequence number of the producer of Src[i]; 0 = ready.
	dep [2]uint64
	// DoneAt is the cycle the result is available once Executed.
	DoneAt int64
	// readyAt is, for an IQ µ-op, the latest completion cycle among the
	// producers already known; it may issue from that cycle on once
	// pending, the count of operands still waiting for their producer to
	// issue, reaches zero.
	readyAt int64

	Class   isa.Class
	pending uint8

	// Status flags.
	Dispatched bool
	InIQ       bool
	Issued     bool
	Executed   bool
	LateExec   bool // EOLE late execution at commit
	Committed  bool
	Squashed   bool

	// PredConfident: confidence saturated (the prediction was used and
	// written to the PRF); consumers dispatched after it need not wait.
	PredConfident bool

	// waiters heads the list of IQ µ-ops waiting for this µ-op to issue,
	// youngest first; waitNext[i] continues the list this µ-op sits on
	// for operand i (see issue.go).
	waiters  waitLink
	waitNext [2]waitLink

	// Boundary is the instruction's byte offset in the fetch block,
	// UopIdx the µ-op's index within the instruction.
	Boundary uint8
	UopIdx   int8
	VPSlot   int8

	IsLoadImm bool
	Eligible  bool
	HasPrev   bool
	// IsBranch marks the resolving µ-op of a branch instruction;
	// BrMispredicted is set at fetch when the front end went wrong.
	IsBranch       bool
	BrMispredicted bool
	// Predicted reports that a prediction was attributed to this µ-op.
	Predicted bool

	Dest isa.Reg
	Src  [2]isa.Reg

	inst *dynInst

	// PC is the parent instruction's address.
	PC uint64
	// Value is the architectural result (trace oracle), Addr the memory
	// address for loads/stores, PrevValue/HasPrev the oracle for the
	// idealistic speculative window.
	Value     uint64
	Addr      uint64
	PrevValue uint64
	// PredValue is the predicted value.
	PredValue uint64

	// Timing state.
	FetchedAt int64

	// Memory dependence state.
	StoreDepSeq uint64 // store-set predicted producer store, 0 = none

	// VPRec points at the in-flight block prediction record owning this
	// µ-op's slot; VPSlot is the slot index (-1 = unattributed). VPGen is
	// the record's generation counter at attribution time: the record is
	// pooled, so a holder must treat a generation mismatch as a dangling
	// reference (the record was freed and possibly recycled for another
	// block) and ignore it.
	VPRec any
	VPGen uint64

	// Outcome carries per-instruction predictor metadata (Section VI-A
	// operation); block-based operation uses VPRec/VPSlot instead.
	Outcome predictor.Outcome
}

// dynInst groups the µ-ops of one dynamic instruction so squashed
// instructions can be re-fetched whole. dynInsts (and the UOps they own)
// are pooled: allocInst recycles them, freeInst returns them. pooled
// marks a dynInst whose lifetime has ended, so a double free — the
// classic pooled-lifetime bug — is caught at the free site instead of
// corrupting an unrelated instruction later. A UOp's generation counter
// is its Seq: every (re)activation assigns a fresh one, which is what
// lookup() checks against the inflight ring.
type dynInst struct {
	inst     isa.Inst
	uops     []*UOp
	brPred   branch.Prediction
	brPredOK bool // TAGE was consulted (conditional branch)
	// histBefore snapshots the global history before this instruction's
	// branch outcome was pushed, for repair on squash.
	histBefore branch.HistorySnapshot
	pushedHist bool
	committed  int // µ-ops committed so far

	pooled bool
}

// reset clears the per-activation state for reuse. Fields that
// activateInst assigns unconditionally right after (Seq, PC, Boundary,
// UopIdx, Dest, Src, Class, Value, Addr, IsLoadImm, Eligible,
// PrevValue, HasPrev, VPSlot, FetchedAt, IsBranch, inst) are skipped, as
// is Outcome: its only consumer (InstVP) fully overwrites it at fetch
// before any read. Zeroing just what needs it keeps the ~350-byte struct
// off the per-µ-op refetch path.
func (u *UOp) reset() {
	u.dep = [2]uint64{}
	u.DoneAt = 0
	u.readyAt, u.pending = 0, 0
	u.waiters, u.waitNext = waitLink{}, [2]waitLink{}
	u.Dispatched, u.InIQ, u.Issued, u.Executed = false, false, false, false
	u.LateExec, u.Committed, u.Squashed = false, false, false
	u.PredConfident, u.BrMispredicted, u.Predicted = false, false, false
	u.StoreDepSeq = 0
	u.VPRec = nil
	u.VPGen = 0
	u.PredValue = 0
}
