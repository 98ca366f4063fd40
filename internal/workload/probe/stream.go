package probe

import (
	"fmt"

	"bebop/internal/isa"
	"bebop/internal/util"
)

// Probe programs are tiny static loops laid out from probeBase, one
// instruction per 16-byte fetch block unless a family deliberately packs
// a block (bebop-block). The layout is what makes the geometry math
// exact: every value-producing instruction owns a known fetch block, and
// every iteration pushes a known number of branch-history bits — one per
// conditional branch plus one for the taken loop-closing jump.
const (
	probeBase  = uint64(0x400000)
	branchSize = 4
	valSize    = 4
)

// valMode selects how a value-producing instruction evolves its result.
type valMode uint8

const (
	// valConst produces the same value at every occurrence.
	valConst valMode = iota
	// valStrides adds strides[(occ-1) % len(strides)] per occurrence.
	valStrides
	// valRunStable holds a value for run occurrences, then jumps to a
	// fresh pseudo-random one.
	valRunStable
)

// valSpec is the static description of one value-producing instruction.
type valSpec struct {
	mode    valMode
	strides []int64
	run     int64
	init    uint64
	seed    uint64 // RNG seed for valRunStable jumps
	dest    isa.Reg
}

// stInst is one static probe instruction.
type stInst struct {
	pc     uint64
	size   int
	kind   isa.BranchKind
	target uint64 // taken target (branches only)
	// nextIdx / takenIdx are the static successors on fall-through and
	// on a taken branch.
	nextIdx  int
	takenIdx int
	// pattern is the per-occurrence direction of a conditional branch,
	// cycled: direction(occ) = pattern[occ % len(pattern)].
	pattern []bool
	val     *valSpec
}

// program is a compiled static probe loop.
type program struct {
	insts []stInst
}

// builder lays probe instructions out from probeBase. Each add* starts a
// fresh fetch block unless the caller packs PCs explicitly.
type builder struct {
	insts  []stInst
	rng    *util.RNG
	nextPC uint64
}

func newBuilder(seed uint64) *builder {
	return &builder{rng: util.NewRNG(seed), nextPC: probeBase}
}

// padBlock fills the current fetch block to its boundary with a nop
// instruction, so the next instruction starts a fresh block while the
// fall-through PC chain stays contiguous (the trace format and the
// well-formedness tests both rely on pc+size reaching the next
// instruction). The nop has no destination register, so it is invisible
// to value prediction and pushes no branch history.
func (b *builder) padBlock() {
	off := b.nextPC & (isa.FetchBlockSize - 1)
	if off == 0 {
		return
	}
	b.insts = append(b.insts, stInst{
		pc:   b.nextPC,
		size: int(isa.FetchBlockSize - off),
		kind: isa.BranchNone,
	})
	b.nextPC += isa.FetchBlockSize - off
}

// maxPressure bounds the pressure of the families whose static program
// grows with it (one branch, block or pattern slot per unit), so a
// request cannot ask for an unbounded build. It sits 16× above the
// largest default grid point among them, vp-capacity's 4096.
const maxPressure = 1 << 16

// retireBlocks is the number of full nop fetch blocks (16 µ-ops each)
// that addNopBlocks callers insert to push a value block's recurrence
// distance past the 192-entry ROB. BeBoP's speculative window seeds a
// block's prediction chain from its own in-flight predicted values; if a
// block with a non-zero stride is refetched while a previous instance is
// still in flight, the chain is seeded from a last value that is stale
// by the in-flight depth and stays wrong by that constant forever, so
// confidence never builds. 16 blocks × 16 µ-ops = 256 µ-ops of spacing
// guarantee the previous instance has retired and trained — the window
// entry is gone and the architectural last-value table reseeds the
// chain correctly. Constant-value families are immune (staleness is
// invisible at stride zero) and skip the padding.
const retireBlocks = 16

// addNopBlocks appends n full fetch blocks of destination-less 1-byte
// nops. They produce no values, push no branch history and never train
// the predictors — pure recurrence-distance spacing.
func (b *builder) addNopBlocks(n int) {
	b.padBlock()
	for i := 0; i < n; i++ {
		for j := 0; j < int(isa.FetchBlockSize); j++ {
			b.insts = append(b.insts, stInst{pc: b.nextPC, size: 1, kind: isa.BranchNone})
			b.nextPC++
		}
	}
}

// addVal appends a value-producing ALU instruction of the given byte
// size at the current PC.
func (b *builder) addVal(size int, v valSpec) {
	spec := v
	b.insts = append(b.insts, stInst{
		pc:   b.nextPC,
		size: size,
		kind: isa.BranchNone,
		val:  &spec,
	})
	b.nextPC += uint64(size)
}

// addCond appends a conditional branch whose taken target is its own
// fall-through PC: direction is the only thing the branch predictor can
// get wrong, and the control flow stays a straight loop either way.
func (b *builder) addCond(pattern []bool) {
	pc := b.nextPC
	b.insts = append(b.insts, stInst{
		pc:      pc,
		size:    branchSize,
		kind:    isa.BranchCond,
		target:  pc + branchSize,
		pattern: pattern,
	})
	b.nextPC += branchSize
}

// finish appends the loop-closing unconditional jump back to the first
// instruction (always on its own fetch block) and resolves successor
// indices. Because every conditional branch targets its own
// fall-through, control flow is a straight loop: each static instruction
// executes exactly once per iteration regardless of directions, which is
// what makes per-iteration accounting in the oracle exact.
func (b *builder) finish() *program {
	b.padBlock()
	b.insts = append(b.insts, stInst{
		pc:     b.nextPC,
		size:   branchSize,
		kind:   isa.BranchDirect,
		target: b.insts[0].pc,
	})
	for i := range b.insts {
		in := &b.insts[i]
		in.nextIdx = (i + 1) % len(b.insts)
		switch in.kind {
		case isa.BranchDirect:
			in.takenIdx = 0
		case isa.BranchCond:
			in.takenIdx = in.nextIdx // taken target == fall-through
		}
	}
	return &program{insts: b.insts}
}

// seedFor derives the deterministic per-(family, pressure) RNG seed from
// the workload name, so a probe source is fully identified by its name.
func seedFor(family string, pressure int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range []byte(family) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ uint64(uint32(pressure))) * prime64
	if h == 0 {
		h = offset64
	}
	return h
}

// instState is the mutable per-static-instruction replay state.
type instState struct {
	occ  int64
	cur  uint64
	prev uint64
	rng  *util.RNG
}

// stream walks a probe program deterministically.
type stream struct {
	prog    *program
	st      []instState
	idx     int
	emitted int64
	max     int64 // <0 = unbounded
}

func (p *program) open(maxInsts int64) *stream {
	s := &stream{prog: p, st: make([]instState, len(p.insts)), max: maxInsts}
	for i := range p.insts {
		if v := p.insts[i].val; v != nil && v.mode == valRunStable {
			s.st[i].rng = util.NewRNG(v.seed)
		}
	}
	return s
}

// value advances and returns the architectural result of a
// value-producing instruction at its current occurrence.
func (st *instState) value(v *valSpec) uint64 {
	switch v.mode {
	case valConst:
		st.cur = v.init
	case valStrides:
		if st.occ == 0 {
			st.cur = v.init
		} else {
			st.cur += uint64(v.strides[(st.occ-1)%int64(len(v.strides))])
		}
	case valRunStable:
		if st.occ%v.run == 0 {
			st.cur = st.rng.Uint64()
		}
	}
	return st.cur
}

// Next implements isa.Stream.
func (s *stream) Next(in *isa.Inst) bool {
	if s.max >= 0 && s.emitted >= s.max {
		return false
	}
	p := &s.prog.insts[s.idx]
	st := &s.st[s.idx]
	*in = isa.Inst{PC: p.pc, Size: p.size, Kind: p.kind, NumUOps: 1}
	switch p.kind {
	case isa.BranchNone:
		if p.val == nil {
			// Block-padding filler: a destination-less nop.
			in.UOps[0] = isa.MicroOp{
				Dest:  isa.RegNone,
				Src:   [2]isa.Reg{isa.RegNone, isa.RegNone},
				Class: isa.ClassNop,
			}
			s.idx = p.nextIdx
			break
		}
		val := st.value(p.val)
		in.UOps[0] = isa.MicroOp{
			Dest:      p.val.dest,
			Src:       [2]isa.Reg{isa.RegNone, isa.RegNone},
			Class:     isa.ClassALU,
			Value:     val,
			PrevValue: st.prev,
			HasPrev:   st.occ > 0,
		}
		st.prev = val
		s.idx = p.nextIdx
	case isa.BranchCond:
		taken := p.pattern[st.occ%int64(len(p.pattern))]
		in.Taken = taken
		in.Target = p.target
		in.UOps[0] = isa.MicroOp{
			Dest:  isa.RegNone,
			Src:   [2]isa.Reg{isa.RegNone, isa.RegNone},
			Class: isa.ClassBranch,
		}
		if taken {
			s.idx = p.takenIdx
		} else {
			s.idx = p.nextIdx
		}
	default: // BranchDirect: the loop-closing jump
		in.Taken = true
		in.Target = p.target
		in.UOps[0] = isa.MicroOp{
			Dest:  isa.RegNone,
			Src:   [2]isa.Reg{isa.RegNone, isa.RegNone},
			Class: isa.ClassBranch,
		}
		s.idx = p.takenIdx
	}
	st.occ++
	s.emitted++
	return true
}

// --- family builders ------------------------------------------------

// onceEvery returns a direction pattern of length period that is taken
// exactly once, at the last slot.
func onceEvery(period int) []bool {
	p := make([]bool, period)
	p[period-1] = true
	return p
}

// balanced16 returns a period-16 pattern with exactly 8 taken slots in a
// deterministic pseudo-random order: the bimodal base predictor sees a
// 50/50 branch and is useless, so correct prediction requires a tagged
// (history-indexed) entry per phase — 16 contexts per branch.
func balanced16(rng *util.RNG) []bool {
	p := make([]bool, 16)
	for i := 0; i < 8; i++ {
		p[i] = true
	}
	for i := len(p) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// buildTAGEHistory: one conditional branch taken once every <period>
// iterations. Each iteration pushes 2 history bits (probe + closing
// jump), so the taken bit is 2*period-1 bits in the past when it must be
// predicted again: the probe is learnable iff TAGE's longest history
// covers that window, and collapses to one mispredict per period past
// it. Periods are kept >= 4 elsewhere so the 64-bit path history (~21
// taken targets) cannot shortcut the direction history.
func buildTAGEHistory(period int) (*program, error) {
	if period < 2 || period > maxPressure {
		return nil, fmt.Errorf("period must be in 2..%d, got %d", maxPressure, period)
	}
	b := newBuilder(seedFor("tage-history", period))
	b.addCond(onceEvery(period))
	return b.finish(), nil
}

// buildTAGECapacity: <branches> static conditional branches, each with
// its own balanced period-16 pattern. Every branch needs ~16 tagged
// entries (one per phase context), so total demand is 16*branches
// entries; past the tagged components' capacity, entries evict each
// other and the per-branch mispredict rate climbs toward 50%.
func buildTAGECapacity(branches int) (*program, error) {
	if branches < 1 || branches > maxPressure {
		return nil, fmt.Errorf("branches must be in 1..%d, got %d", maxPressure, branches)
	}
	b := newBuilder(seedFor("tage-capacity", branches))
	for i := 0; i < branches; i++ {
		b.addCond(balanced16(b.rng))
		b.padBlock()
	}
	return b.finish(), nil
}

// buildTAGEDilution: a period-8 victim branch plus <decoys> perfectly
// predictable alternating branches. The decoys are trivial (2 contexts
// each) but each pushes one history bit per iteration, diluting the
// victim's signal: with d decoys the victim's last taken bit sits
// 1+7*(d+2) bits back, so the victim survives only while that fits the
// longest TAGE history — the cliff moves with MaxHist, not with
// capacity.
func buildTAGEDilution(decoys int) (*program, error) {
	if decoys < 0 || decoys > maxPressure {
		return nil, fmt.Errorf("decoys must be in 0..%d, got %d", maxPressure, decoys)
	}
	b := newBuilder(seedFor("tage-dilution", decoys))
	b.addCond(onceEvery(8))
	b.padBlock()
	for i := 0; i < decoys; i++ {
		if b.rng.Bool(0.5) {
			b.addCond([]bool{true, false})
		} else {
			b.addCond([]bool{false, true})
		}
		b.padBlock()
	}
	return b.finish(), nil
}

// buildVPStride: a single instruction whose value advances by a constant
// <stride> every occurrence. D-VTAGE stores partial strides: while the
// stride fits StrideBits (signed) the value is predicted perfectly; one
// step past it the stored stride truncates to zero, every prediction is
// wrong, confidence never builds and coverage collapses to ~0.
func buildVPStride(stride int) (*program, error) {
	if stride == 0 {
		return nil, fmt.Errorf("stride must be non-zero")
	}
	b := newBuilder(seedFor("vp-stride", stride))
	b.addVal(valSize, valSpec{
		mode:    valStrides,
		strides: []int64{int64(stride)},
		init:    b.rng.Uint64(),
		dest:    isa.Reg(1),
	})
	b.addNopBlocks(retireBlocks)
	return b.finish(), nil
}

// buildVPHistory: a sawtooth value of period <period> (stride +1 for
// period-1 occurrences, then a jump back) next to a phase-marker branch
// taken once per period, in the same iteration as the jump. Each
// iteration pushes two history bits (marker + closing jump), so when the
// jump occurrence is fetched the previous marker's taken bit sits
// exactly 2*period-1 bits in the past — the marker fires after the
// value, so the current iteration's bit cannot help. A tagged D-VTAGE
// component disambiguates the jump phase (stride -(period-1)) from the
// ramp phases (stride +1) only while its history length reaches that
// bit: past max(HistLens) the jump phase aliases with the deep-ramp
// phases, the shared entry mispredicts every period and coverage decays
// toward (max(HistLens)/2+1)/period.
func buildVPHistory(period int) (*program, error) {
	if period < 2 || period > maxPressure {
		return nil, fmt.Errorf("period must be in 2..%d, got %d", maxPressure, period)
	}
	strides := make([]int64, period)
	for i := 0; i < period-1; i++ {
		strides[i] = 1
	}
	strides[period-1] = -int64(period - 1)
	marker := make([]bool, period)
	marker[0] = true // fires with the jump, not one slot before it
	b := newBuilder(seedFor("vp-history", period))
	b.addVal(valSize, valSpec{
		mode:    valStrides,
		strides: strides,
		init:    b.rng.Uint64(),
		dest:    isa.Reg(1),
	})
	b.padBlock()
	b.addCond(marker)
	b.addNopBlocks(retireBlocks)
	return b.finish(), nil
}

// buildVPCapacity: <blocks> distinct fetch blocks, each holding one
// instruction that produces a block-specific constant — the easiest
// possible value stream, so the only pressure is entry count in the
// direct-mapped last-value table. With N entries, the fraction of blocks
// mapped alone is ~e^(-blocks/N): coverage rolls off smoothly and sits
// near zero once blocks >> N.
func buildVPCapacity(blocks int) (*program, error) {
	if blocks < 1 || blocks > maxPressure {
		return nil, fmt.Errorf("blocks must be in 1..%d, got %d", maxPressure, blocks)
	}
	b := newBuilder(seedFor("vp-capacity", blocks))
	for i := 0; i < blocks; i++ {
		b.addVal(valSize, valSpec{
			mode: valConst,
			init: b.rng.Uint64(),
			dest: isa.Reg(1 + i%39),
		})
		b.padBlock()
	}
	return b.finish(), nil
}

// buildVPLVS: last-value stability. One instruction holds its value for
// runs of <run> occurrences, then jumps to a fresh pseudo-random value.
// The forward probabilistic counters need ~129 correct predictions in
// expectation to saturate: long runs spend most occurrences confident,
// short runs never reach confidence and coverage stays ~0 even though
// the value is locally constant.
func buildVPLVS(run int) (*program, error) {
	if run < 1 {
		return nil, fmt.Errorf("run must be >= 1, got %d", run)
	}
	b := newBuilder(seedFor("vp-lvs", run))
	b.addVal(valSize, valSpec{
		mode: valRunStable,
		run:  int64(run),
		seed: b.rng.Uint64(),
		dest: isa.Reg(1),
	})
	return b.finish(), nil
}

// buildBeBoPBlock: <uops> trivially predictable constants packed into a
// single 16-byte fetch block (2-byte instructions). A BeBoP entry holds
// NPred prediction slots per block: the first NPred µ-ops claim them and
// predict perfectly, the rest can never be attributed a slot, so
// coverage is capped at NPred/uops — the cliff is the slot count itself.
func buildBeBoPBlock(uops int) (*program, error) {
	const maxPack = int(isa.FetchBlockSize) / 2
	if uops < 1 || uops > maxPack {
		return nil, fmt.Errorf("uops must be in 1..%d, got %d", maxPack, uops)
	}
	b := newBuilder(seedFor("bebop-block", uops))
	for i := 0; i < uops; i++ {
		b.addVal(2, valSpec{
			mode: valConst,
			init: b.rng.Uint64(),
			dest: isa.Reg(1 + i),
		})
	}
	return b.finish(), nil
}
