// Package isa defines the synthetic variable-length instruction set used by
// the simulator.
//
// The paper evaluates BeBoP on x86_64, whose relevant properties are:
// instructions have variable byte lengths so their positions inside a fetch
// block are only known after pre-decode; an instruction cracks into one or
// more µ-ops; some instructions produce several register results; and the
// front end fetches fixed-size 16-byte blocks. This package reproduces that
// geometry with a synthetic encoding: what matters to a value predictor is
// *where* results appear inside fetch blocks, not the semantics of the
// opcodes themselves.
package isa

// FetchBlockSize is the fetch block size in bytes. The paper fetches two
// 16-byte blocks per cycle (Table I).
const FetchBlockSize = 16

// MaxUOpsPerInst bounds how many µ-ops one instruction cracks into.
const MaxUOpsPerInst = 4

// MaxInstBytes is the longest legal instruction encoding, mirroring x86.
const MaxInstBytes = 15

// NumArchRegs is the size of the architectural register space. Integer and
// floating-point registers share one namespace for simplicity; the
// distinction the pipeline cares about is the µ-op class, which selects the
// functional unit.
const NumArchRegs = 64

// Reg names an architectural register. RegNone marks "no register".
type Reg int8

// RegNone is the absent-register sentinel.
const RegNone Reg = -1

// Class is the execution class of a µ-op; it selects the functional unit
// and base latency in the pipeline model (Table I).
type Class uint8

// Execution classes, matching the FU mix of Table I.
const (
	ClassNop    Class = iota
	ClassALU          // 1-cycle integer op
	ClassMul          // 3-cycle integer multiply
	ClassDiv          // 25-cycle unpipelined integer divide
	ClassFP           // 3-cycle FP add/sub
	ClassFPMul        // 5-cycle FP multiply
	ClassFPDiv        // 10-cycle unpipelined FP divide
	ClassLoad         // address generation + D-cache access
	ClassStore        // address generation + store-queue entry
	ClassBranch       // resolves a branch
	numClasses
)

// NumClasses is the number of distinct µ-op classes.
const NumClasses = int(numClasses)

// String implements fmt.Stringer for diagnostics.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassDiv:
		return "div"
	case ClassFP:
		return "fp"
	case ClassFPMul:
		return "fpmul"
	case ClassFPDiv:
		return "fpdiv"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	}
	return "?"
}

// MicroOp is one µ-op of a cracked instruction, as seen by the pipeline
// after decode. Values and addresses come from the trace: the simulator is
// execution-trace-driven, so every µ-op knows its architectural result.
type MicroOp struct {
	// Dest is the architectural destination register, RegNone if the µ-op
	// produces no register value (stores, branches, nops).
	Dest Reg
	// Src holds up to two architectural source registers; unused slots are
	// RegNone.
	Src [2]Reg
	// Class selects the functional unit and latency.
	Class Class
	// Value is the architectural result written to Dest. Meaningless when
	// Dest is RegNone.
	Value uint64
	// Addr is the effective memory address for loads and stores.
	Addr uint64
	// IsLoadImm marks a load-immediate µ-op: its result is an immediate
	// available in the front end, so under BeBoP it is never predicted,
	// trained or validated — the decoded immediate is written to the PRF
	// directly (Section II-B3, "free load immediate prediction").
	IsLoadImm bool
	// PrevValue is trace oracle metadata: the value produced by the
	// previous dynamic instance of the same static µ-op, and HasPrev its
	// validity. It implements the *idealistic* speculative window of the
	// paper's potential study (Section VI-A) and the Ideal recovery policy
	// (Section IV-A(d)): an instruction-grained window with perfect
	// repair would always supply exactly this value. Realistic BeBoP
	// configurations never read these fields.
	PrevValue uint64
	// HasPrev reports whether PrevValue is valid.
	HasPrev bool
}

// Eligible reports whether the µ-op is a candidate for value prediction:
// it must produce a register value that later µ-ops can read, and not be a
// free load-immediate.
func (u *MicroOp) Eligible() bool {
	return u.Dest != RegNone && !u.IsLoadImm
}

// BranchKind classifies control-flow instructions.
type BranchKind uint8

// Branch kinds.
const (
	BranchNone   BranchKind = iota
	BranchCond              // conditional direct branch
	BranchDirect            // unconditional direct jump
	BranchCall              // call (pushes return address on the RAS)
	BranchReturn            // return (pops the RAS)
)

// Inst is one dynamic instruction from the trace: its fetch-time identity
// (PC and byte size, which fix its boundary inside the fetch block), its
// cracked µ-ops, and its control-flow outcome.
type Inst struct {
	// PC is the address of the first byte of the instruction.
	PC uint64
	// Size is the instruction length in bytes, 1..MaxInstBytes.
	Size int
	// NumUOps is the number of valid entries in UOps.
	NumUOps int
	// UOps holds the cracked µ-ops.
	UOps [MaxUOpsPerInst]MicroOp
	// Kind classifies the instruction's control flow.
	Kind BranchKind
	// Taken is the architectural direction for conditional branches and is
	// true for all other control flow.
	Taken bool
	// Target is the architectural next PC when Taken.
	Target uint64
}

// NextPC returns the architectural successor PC of the instruction.
func (in *Inst) NextPC() uint64 {
	if in.Kind != BranchNone && in.Taken {
		return in.Target
	}
	return in.PC + uint64(in.Size)
}

// BlockPC returns the fetch-block address containing pc: the PC
// right-shifted by log2(fetchBlockSize) then re-aligned (Section II-B).
func BlockPC(pc uint64) uint64 { return pc &^ (FetchBlockSize - 1) }

// BlockOffset returns the byte offset of pc inside its fetch block; BeBoP
// uses this offset both as the per-prediction tag and as the µ-op boundary
// index used for attribution (Section II-B1).
func BlockOffset(pc uint64) int { return int(pc & (FetchBlockSize - 1)) }

// Stream produces a dynamic instruction trace. Next fills in *Inst and
// returns false when the stream is exhausted. Implementations must be
// deterministic for a given construction seed.
type Stream interface {
	Next(in *Inst) bool
}
