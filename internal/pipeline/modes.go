package pipeline

import (
	"bebop/internal/branch"
	"bebop/internal/isa"
)

// The cheap execution modes of sampled simulation (core.RunSampled):
// it skips cycle accuracy everywhere it does not measure, SMARTS-style.
// FastForward reaches an interval, Warm trains the predictors
// functionally, and the detailed RunWarm loop measures.

// FastForward drains up to insts instructions from the stream without
// touching any model state: the cheapest way to reach a later region of
// a trace when no SeekInst-capable reader is available. It returns the
// number of instructions consumed.
func (p *Processor) FastForward(insts int64) int64 {
	var n int64
	in := &p.scratch
	for n < insts {
		if p.pending.Len() > 0 {
			p.freeInst(p.pending.PopFront())
			n++
			continue
		}
		if p.streamDone {
			break
		}
		if !p.stream.Next(in) {
			p.streamDone = true
			break
		}
		n++
	}
	return n
}

// WarmUOp is the slice of a µ-op the value predictor sees during
// functional warming: enough to predict, attribute and train, with no
// pipeline timing attached.
type WarmUOp struct {
	PC        uint64
	UopIdx    int8
	Boundary  uint8
	Eligible  bool
	Value     uint64
	PrevValue uint64
	HasPrev   bool
}

// VPWarmer is the optional warming interface of a VP implementation:
// one call per fetch-block occurrence, in program order, with the
// block's µ-ops and the history as it stands after the block's own
// branches (matching when the detailed front end performs the access).
// Implementations train immediately and must leave no in-flight state —
// warming has no retire stage to drain a FIFO through.
type VPWarmer interface {
	WarmFetchBlock(blockPC uint64, hist *branch.History, uops []WarmUOp)
}

// Warm consumes up to insts instructions, training every long-lived
// structure the way the detailed pipeline would in the steady state:
// TAGE predict+update and history pushes per branch, BTB/RAS maintenance,
// I-cache/D-cache accesses on a synthetic clock, and block-grained value
// predictor training through VPWarmer. Stats, the cycle counter and the
// sequence counter are untouched, so a detailed measurement can start
// cleanly right after. Store sets are deliberately not trained: they
// learn only from out-of-order memory violations, which do not exist in
// an in-order functional walk.
//
// On return all in-flight timing state (cache MSHRs, DRAM bank/bus
// clocks) is quiesced: warming's synthetic clock is meaningless to a
// detailed run restarting at cycle 0. The last fetch-block occurrence
// stays open, so a later Warm extends it as one longer call would;
// Snapshot carries it, and RunWarm closes it before its first cycle.
func (p *Processor) Warm(insts int64) int64 {
	vpw, _ := p.cfg.VP.(VPWarmer)
	var n int64
	in := &p.scratch
	for n < insts {
		if p.pending.Len() > 0 {
			di := p.pending.PopFront()
			*in = di.inst
			p.freeInst(di)
		} else {
			if p.streamDone {
				break
			}
			if !p.stream.Next(in) {
				p.streamDone = true
				break
			}
		}
		n++
		p.warmInst(in, vpw)
	}
	p.mem.QuiesceTiming()
	return n
}

// warmInst trains every structure on one instruction.
func (p *Processor) warmInst(in *isa.Inst, vpw VPWarmer) {
	blk := isa.BlockPC(in.PC)
	if !p.warmingBlockOpen || blk != p.warmingBlockPC {
		p.flushWarmingBlock(vpw)
		p.warmingBlockOpen = true
		p.warmingBlockPC = blk
		p.mem.ReadInst(blk, p.warmingClock)
	}

	if vpw != nil {
		boundary := uint8(isa.BlockOffset(in.PC))
		for i := 0; i < in.NumUOps; i++ {
			mo := &in.UOps[i]
			p.warmingUOps = append(p.warmingUOps, WarmUOp{
				PC:        in.PC,
				UopIdx:    int8(i),
				Boundary:  boundary,
				Eligible:  mo.Eligible(),
				Value:     mo.Value,
				PrevValue: mo.PrevValue,
				HasPrev:   mo.HasPrev,
			})
		}
	}

	for i := 0; i < in.NumUOps; i++ {
		mo := &in.UOps[i]
		switch mo.Class {
		case isa.ClassLoad:
			p.mem.ReadData(in.PC, mo.Addr, p.warmingClock)
		case isa.ClassStore:
			p.mem.WriteData(in.PC, mo.Addr, p.warmingClock)
		}
	}

	switch {
	case in.Kind == isa.BranchCond:
		pr := p.tage.Predict(in.PC, &p.hist)
		p.tage.Update(&pr, in.Taken)
		p.hist.Push(in.Taken, in.Target)
	case in.Kind != isa.BranchNone && in.Taken:
		p.hist.Push(true, in.Target)
	}
	if in.Taken && in.Kind != isa.BranchNone {
		switch in.Kind {
		case isa.BranchReturn:
			p.ras.Pop()
		default:
			p.btb.Lookup(in.PC)
			p.btb.Insert(in.PC, in.Target)
		}
	}
	if in.Kind == isa.BranchCall {
		p.ras.Push(in.PC + uint64(in.Size))
	}

	// A taken branch ends the block occurrence, as in the detailed front
	// end (the target — even inside the same block — is a fresh access).
	if in.Kind != isa.BranchNone && in.Taken {
		p.flushWarmingBlock(vpw)
	}
	p.warmingClock++
}

// flushWarmingBlock hands the accumulated block occurrence to the value
// predictor's warming path and closes it.
func (p *Processor) flushWarmingBlock(vpw VPWarmer) {
	if !p.warmingBlockOpen {
		return
	}
	if vpw != nil && len(p.warmingUOps) > 0 {
		vpw.WarmFetchBlock(p.warmingBlockPC, &p.hist, p.warmingUOps)
	}
	p.warmingUOps = p.warmingUOps[:0]
	p.warmingBlockOpen = false
}
