package pipeline

import "bebop/internal/isa"

// dispatchStage renames and dispatches up to DispatchWidth µ-ops from the
// decode queue into the ROB, IQ, LQ and SQ. With VP, confident predictions
// are written to the PRF here, making the destination available to
// consumers immediately. Under EOLE, ready 1-cycle µ-ops execute early
// (skipping the IQ) and confidently predicted 1-cycle µ-ops are deferred
// to late execution at commit (also skipping the IQ), which is what lets
// the issue width shrink.
func (p *Processor) dispatchStage() {
	dispatched := 0
	for dispatched < p.cfg.DispatchWidth && p.feQ.Len() > 0 {
		u := p.feQ.Front()
		if p.now < u.FetchedAt+int64(p.cfg.FrontEndDepth) {
			break
		}
		if p.rob.Len() >= p.cfg.ROBSize {
			break
		}
		if u.Class == isa.ClassLoad && p.lq.Len() >= p.cfg.LQSize {
			break
		}
		if u.Class == isa.ClassStore && p.sq.Len() >= p.cfg.SQSize {
			break
		}
		needsIQ := p.classifyDispatch(u)
		if needsIQ && p.iqCount >= p.cfg.IQSize {
			break
		}
		p.feQ.PopFront()
		p.dispatch(u, needsIQ)
		dispatched++
	}
}

// classifyDispatch decides whether u needs an IQ entry, evaluating the
// EOLE early/late execution conditions. It also resolves u's register
// dependences from the rename table (idempotent: dispatch is in order, so
// the producers of the dispatch head cannot change until it dispatches).
func (p *Processor) classifyDispatch(u *UOp) bool {
	for i, s := range u.Src {
		if s != isa.RegNone {
			u.dep[i] = p.renameTable[s]
		}
	}
	// Free load-immediate: the decoded immediate is placed in the PRF
	// using the VP write ports; no IQ entry, no execution (Section II-B3).
	if u.IsLoadImm && p.cfg.VP != nil {
		return false
	}
	if u.Class == isa.ClassNop {
		return false
	}
	if p.cfg.EOLE {
		// Late execution: confidently predicted single-cycle µ-ops are
		// validated/executed just before commit.
		if u.PredConfident && u.Class == isa.ClassALU && !u.IsBranch {
			return false
		}
		// Early execution: single-cycle µ-ops whose operands are all
		// available at rename execute in the front end (1-deep stage).
		if u.Class == isa.ClassALU && !u.IsBranch && p.operandsReady(u) {
			return false
		}
	}
	return true
}

func (p *Processor) dispatch(u *UOp, needsIQ bool) {
	u.Dispatched = true

	p.rob.PushBack(u)

	switch u.Class {
	case isa.ClassLoad:
		if seq, dep := p.sset.LoadDependsOn(u.PC); dep {
			if p.lookup(seq) != nil {
				u.StoreDepSeq = seq
			}
		}
		p.lq.PushBack(u)
	case isa.ClassStore:
		p.sset.StoreFetched(u.PC, u.Seq)
		p.sq.PushBack(u)
	}

	if !needsIQ {
		switch {
		case u.IsLoadImm && p.cfg.VP != nil:
			u.Executed = true
			u.DoneAt = p.now
			p.stats.FreeLoadImms++
		case u.Class == isa.ClassNop:
			u.Executed = true
			u.DoneAt = p.now
		case p.cfg.EOLE && u.PredConfident && u.Class == isa.ClassALU && !u.IsBranch:
			u.LateExec = true
			p.stats.LateExecuted++
		default: // EOLE early execution
			u.Executed = true
			u.DoneAt = p.now
			p.stats.EarlyExecuted++
		}
	} else {
		p.enterIQ(u)
	}

	if u.Dest != isa.RegNone {
		p.renameTable[u.Dest] = u.Seq
	}
}
