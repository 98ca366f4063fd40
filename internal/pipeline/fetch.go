package pipeline

import "bebop/internal/isa"

// fetchStage models the in-order front end: up to FetchBlocksPerCycle
// 16-byte blocks per cycle, over at most one taken branch, bounded by
// FetchWidth µ-ops, feeding the decode queue. Conditional branches are
// predicted with TAGE, targets with the BTB and RAS; a misprediction
// stalls fetch until the branch resolves, charging the redirect penalty.
// Each fetched block occurrence triggers one value predictor access
// (BeBoP: one entry read covering the whole block).
func (p *Processor) fetchStage() {
	if p.pendingRedirectSeq != 0 {
		u := p.lookup(p.pendingRedirectSeq)
		if u != nil && !(u.Executed && p.now >= u.DoneAt) {
			return
		}
		p.pendingRedirectSeq = 0
		// Redirect consumes the rest of this cycle.
		return
	}
	if p.now < p.fetchStallUntil {
		return
	}

	blocksFetched := 0
	uopsFetched := 0
	takenSeen := false
	if p.blockOpen {
		// A block occurrence left open by last cycle's width limit
		// continues; it consumes one of this cycle's block accesses.
		blocksFetched = 1
	}

	for {
		if p.feQ.Len() >= p.cfg.FetchQueueSize {
			// Decode queue full: fetch stalls until dispatch drains it.
			break
		}
		di := p.peekInst()
		if di == nil {
			p.closeBlock()
			break
		}
		blk := isa.BlockPC(di.inst.PC)
		if !p.blockOpen || blk != p.blockPC {
			p.closeBlock()
			if blocksFetched >= p.cfg.FetchBlocksPerCycle {
				break
			}
			// I-cache access for the new block.
			done := p.mem.ReadInst(blk, p.now)
			if done > p.now+int64(p.cfg.MemCfg.L1I.Latency) {
				// I-cache miss: the block arrives later; stall fetch.
				p.fetchStallUntil = done
				break
			}
			p.blockOpen = true
			p.blockPC = blk
			p.blockFirstSeq = p.seqCtr
			blocksFetched++
		}
		if uopsFetched+di.inst.NumUOps > p.cfg.FetchWidth {
			// Width exhausted mid-block: the occurrence stays open and
			// continues next cycle (same predictor access).
			break
		}

		p.consumeInst()
		p.activateInst(di)
		uopsFetched += di.inst.NumUOps
		p.blockUOps = append(p.blockUOps, di.uops...)

		stop, taken := p.processBranch(di)
		if taken || stop {
			// A taken branch (or a front-end redirect) ends the block
			// occurrence; a taken-branch target — even inside the same
			// block — is a fresh access, which models the 3-input-adder
			// back-to-back same-block case of Section III-C.
			p.closeBlock()
		}
		if stop {
			break
		}
		if taken {
			if takenSeen {
				break
			}
			takenSeen = true
		}
	}
}

// closeBlock ends the current fetch-block occurrence, handing its µ-ops to
// the value prediction infrastructure in one block-based access.
func (p *Processor) closeBlock() {
	if !p.blockOpen {
		return
	}
	if p.cfg.VP != nil && len(p.blockUOps) > 0 {
		p.cfg.VP.OnFetchBlock(p.blockPC, p.blockFirstSeq, &p.hist, p.blockUOps)
	}
	p.blockUOps = p.blockUOps[:0]
	p.blockOpen = false
}

// peekInst returns the next instruction to fetch without consuming it.
func (p *Processor) peekInst() *dynInst {
	if p.pending.Len() > 0 {
		return p.pending.Front()
	}
	if p.streamDone {
		return nil
	}
	di := p.allocInst()
	if !p.stream.Next(&di.inst) {
		p.streamDone = true
		p.freeInst(di)
		return nil
	}
	p.pending.PushBack(di)
	return di
}

func (p *Processor) consumeInst() {
	p.pending.PopFront()
}

// newUOp hands out µ-ops from a contiguous slab, so the µ-ops of nearby
// instructions — which dispatch, wakeup, the ready-list walk and the
// commit walk touch together — share pages and often cache lines
// instead of being scattered one heap object at a time. µ-ops are never
// freed individually (their dynInst keeps them for reuse), so the slab
// only ever moves forward.
func (p *Processor) newUOp() *UOp {
	if len(p.uopSlab) == 0 {
		p.uopSlab = make([]UOp, 128)
	}
	u := &p.uopSlab[0]
	p.uopSlab = p.uopSlab[1:]
	return u
}

func (p *Processor) allocInst() *dynInst {
	if n := len(p.instPool); n > 0 {
		di := p.instPool[n-1]
		p.instPool = p.instPool[:n-1]
		// Selective reset instead of zeroing the whole record (~500B with
		// the embedded Inst, Prediction and History snapshot): inst is
		// fully written by stream.Next before any read, and brPred /
		// histBefore are only read under brPredOK / pushedHist, which are
		// set together with a fresh value.
		di.brPredOK = false
		di.pushedHist = false
		di.committed = 0
		di.pooled = false
		return di
	}
	return &dynInst{}
}

func (p *Processor) freeInst(di *dynInst) {
	if di.pooled {
		panic("pipeline: dynInst double free")
	}
	// Mark even when the pool is full and the object goes to the GC:
	// the double-free guard must not lapse with pool occupancy.
	di.pooled = true
	if len(p.instPool) < 512 {
		p.instPool = append(p.instPool, di)
	}
}

// activateInst assigns sequence numbers, builds the µ-ops and pushes them
// into the decode queue. It is called both for first fetch and refetch
// after a squash (with fresh sequence numbers).
func (p *Processor) activateInst(di *dynInst) {
	in := &di.inst
	boundary := uint8(isa.BlockOffset(in.PC))
	// Size the µ-op slice. Re-expanding to capacity first recovers UOps a
	// previous (narrower) activation sliced out of view — without this,
	// every widening activation would leak the hidden objects and allocate
	// replacements, defeating the pool.
	uops := di.uops[:cap(di.uops)]
	if len(uops) < in.NumUOps {
		nu := make([]*UOp, isa.MaxUOpsPerInst)
		copy(nu, uops)
		uops = nu
	}
	for i := 0; i < in.NumUOps; i++ {
		if uops[i] == nil {
			uops[i] = p.newUOp()
		}
	}
	di.uops = uops[:in.NumUOps]
	di.committed = 0
	di.pushedHist = false
	for i := 0; i < in.NumUOps; i++ {
		u := di.uops[i]
		u.reset()
		mo := &in.UOps[i]
		u.Seq = p.seqCtr
		p.seqCtr++
		u.PC = in.PC
		u.Boundary = boundary
		u.UopIdx = int8(i)
		u.Dest = mo.Dest
		u.Src = mo.Src
		u.Class = mo.Class
		u.Value = mo.Value
		u.Addr = mo.Addr
		u.IsLoadImm = mo.IsLoadImm
		u.Eligible = mo.Eligible()
		u.PrevValue = mo.PrevValue
		u.HasPrev = mo.HasPrev
		u.VPSlot = -1
		u.FetchedAt = p.now
		u.inst = di
		u.IsBranch = in.Kind != isa.BranchNone && i == in.NumUOps-1
		p.inflight[u.Seq&(inflightRing-1)] = u
		p.feQ.PushBack(u)
		p.stats.FetchedUOps++
	}
}

// processBranch predicts the instruction's control flow and compares it
// with the trace outcome. It returns stop=true when fetch must stall
// (misprediction or BTB/RAS target miss) and taken=true when the
// architectural direction is taken.
func (p *Processor) processBranch(di *dynInst) (stop, taken bool) {
	in := &di.inst
	if in.Kind == isa.BranchNone {
		return false, false
	}
	brUOp := di.uops[len(di.uops)-1]
	di.histBefore = p.hist.Snapshot()

	predTaken := true
	di.brPredOK = false
	if in.Kind == isa.BranchCond {
		di.brPred = p.tage.Predict(in.PC, &p.hist)
		di.brPredOK = true
		predTaken = di.brPred.Taken
	}

	// Target prediction.
	targetOK := true
	if in.Taken {
		switch in.Kind {
		case isa.BranchReturn:
			t, ok := p.ras.Pop()
			targetOK = ok && t == in.Target
		default:
			t, ok := p.btb.Lookup(in.PC)
			targetOK = ok && t == in.Target
			if !ok {
				p.stats.BTBMisses++
			}
		}
	}
	if in.Kind == isa.BranchCall {
		p.ras.Push(in.PC + uint64(in.Size))
	}

	// Update the speculative (here: architectural, since fetch stalls on a
	// wrong path) history.
	if in.Kind == isa.BranchCond {
		p.hist.Push(in.Taken, in.Target)
		di.pushedHist = true
	} else if in.Taken {
		p.hist.Push(true, in.Target)
		di.pushedHist = true
	}

	if predTaken != in.Taken || (in.Taken && !targetOK && in.Kind == isa.BranchReturn) {
		// Direction mispredictions and wrong RAS targets resolve when the
		// branch executes: stall fetch until then.
		brUOp.BrMispredicted = true
		p.pendingRedirectSeq = brUOp.Seq
		return true, in.Taken
	}
	if in.Taken && !targetOK {
		// BTB miss on a direct branch: the target is computed at decode,
		// so fetch restarts after a short decode-redirect bubble.
		p.fetchStallUntil = p.now + decodeRedirectPenalty
		return true, in.Taken
	}
	return false, in.Taken
}

// decodeRedirectPenalty is the fetch bubble for targets resolved at decode
// (direct branches missing in the BTB).
const decodeRedirectPenalty = 6
