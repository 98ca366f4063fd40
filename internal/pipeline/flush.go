package pipeline

// flushFrom squashes every µ-op with sequence number strictly greater than
// keepSeq and arranges for the squashed instructions to be refetched in
// order. It repairs the rename table and the global branch history, and
// notifies the value prediction infrastructure so the speculative window
// and FIFO update queue can apply their recovery policy (Section IV-A).
func (p *Processor) flushFrom(keepSeq uint64) {
	// Close any open fetch-block occurrence first so the VP layer sees a
	// consistent prediction block before squash callbacks arrive.
	p.closeBlock()

	// Collect squashed instructions oldest-first for refetch, into the
	// reusable scratch buffer. The ROB tail and then the decode queue
	// append to it in program order, so an instruction whose µ-ops span
	// both is a repeat of the last element, which markInst skips.
	squashedInsts := p.squashScratch[:0]
	markInst := func(u *UOp) {
		di := u.inst
		if len(squashedInsts) > 0 && squashedInsts[len(squashedInsts)-1] == di {
			return
		}
		squashedInsts = append(squashedInsts, di)
	}

	squash := func(u *UOp) {
		u.Squashed = true
		if u.InIQ {
			u.InIQ = false
			p.iqCount--
		}
		p.inflightClear(u)
		p.stats.SquashedUOps++
		if p.cfg.VP != nil {
			p.cfg.VP.OnSquash(u)
		}
	}

	// ROB tail: find the oldest squashed entry, walk the tail oldest-first
	// (so squashedInsts ends up in program order), then truncate.
	cut := p.rob.Len()
	for cut > 0 && p.rob.At(cut-1).Seq > keepSeq {
		cut--
	}
	for i := cut; i < p.rob.Len(); i++ {
		u := p.rob.At(i)
		squash(u)
		markInst(u)
	}
	p.rob.TruncateBack(cut)

	// Decode queue (all in order).
	feCut := p.feQ.Len()
	for feCut > 0 && p.feQ.At(feCut-1).Seq > keepSeq {
		feCut--
	}
	for i := feCut; i < p.feQ.Len(); i++ {
		u := p.feQ.At(i)
		squash(u)
		markInst(u)
	}
	p.feQ.TruncateBack(feCut)

	// Ready list, LQ, SQ: drop the squashed entries. Those left in the
	// timed heap are dropped when they come due.
	p.dropSquashedReady(keepSeq)
	keep := func(u *UOp) bool { return u.Seq <= keepSeq }
	p.lq.Filter(keep)
	p.sq.Filter(keep)

	// Repair the global history: restore the snapshot taken before the
	// oldest squashed branch pushed its outcome.
	for _, di := range squashedInsts {
		if di.pushedHist {
			p.hist.Restore(di.histBefore)
			break
		}
	}

	// Rename table repair: rebuild from the surviving ROB. The same walk
	// drops the squashed consumers from the survivors' wait lists.
	for i := range p.renameTable {
		p.renameTable[i] = 0
	}
	for i := 0; i < p.rob.Len(); i++ {
		u := p.rob.At(i)
		if u.Dest >= 0 {
			p.renameTable[u.Dest] = u.Seq
		}
		u.unlinkSquashed(keepSeq)
	}
	// Surviving decode-queue µ-ops have not renamed yet; nothing to do.

	// Refetch: push squashed instructions back to the front of the pending
	// queue, preserving program order.
	for i := len(squashedInsts) - 1; i >= 0; i-- {
		p.pending.PushFront(squashedInsts[i])
	}
	// Return the scratch buffer without retaining dynInst pointers.
	for i := range squashedInsts {
		squashedInsts[i] = nil
	}
	p.squashScratch = squashedInsts[:0]

	// A redirect for a squashed branch is void; the refetch re-detects it.
	if p.pendingRedirectSeq > keepSeq {
		p.pendingRedirectSeq = 0
	}

	// Fetch resumes next cycle at the squashed stream position.
	if p.fetchStallUntil < p.now+1 {
		p.fetchStallUntil = p.now + 1
	}

	if p.cfg.VP != nil {
		newBlockPC := uint64(0)
		if p.pending.Len() > 0 {
			newBlockPC = p.pending.Front().inst.PC &^ 15
		}
		p.cfg.VP.OnFlush(keepSeq, newBlockPC)
	}
}
