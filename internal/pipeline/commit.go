package pipeline

import "bebop/internal/isa"

// commitStage retires up to CommitWidth µ-ops in order. With VP, used
// predictions are validated here against the architectural value; a
// mismatch squashes everything younger than the offending instruction and
// refetches (validation and recovery at commit, outside the OoO engine).
// Under EOLE, confidently predicted single-cycle µ-ops execute here, in
// the late execution stage preceding validation.
func (p *Processor) commitStage() {
	committed := 0
	for committed < p.cfg.CommitWidth && p.rob.Len() > 0 {
		u := p.rob.Front()
		if p.now < u.FetchedAt+int64(p.cfg.MinFetchToCommit) {
			break
		}
		if u.LateExec && !u.Executed {
			// Late execution: the result was computed in the dedicated
			// late-execution/validation stage just before commit (its
			// latency is part of MinFetchToCommit), so the µ-op commits
			// without stalling.
			u.Executed = true
			u.DoneAt = p.now - 1
		}
		if !u.Executed || p.now < u.DoneAt+1 {
			break
		}

		p.rob.PopFront()
		u.Committed = true
		p.inflightClear(u)
		committed++
		p.stats.UOps++

		if u.Dest != isa.RegNone && p.renameTable[u.Dest] == u.Seq {
			p.renameTable[u.Dest] = 0
		}

		switch u.Class {
		case isa.ClassLoad:
			p.lqRemove(u)
		case isa.ClassStore:
			p.sqRemove(u)
			p.sset.StoreRetired(u.PC, u.Seq)
			p.mem.WriteData(u.PC, u.Addr, p.now)
		}

		mispredictedValue := u.PredConfident && u.PredValue != u.Value

		if p.cfg.VP != nil {
			p.cfg.VP.OnRetire(u)
		}

		di := u.inst
		di.committed++
		flushBoundary := di.uops[len(di.uops)-1].Seq
		if di.committed == len(di.uops) {
			p.stats.Insts++
			p.retireInstControl(di)
			p.freeInst(di)
		}

		if mispredictedValue {
			p.stats.ValueMispredicts++
			if p.h2pVal != nil {
				p.h2pVal.bump(u.PC)
			}
			// Squash younger instructions; the offender's own instruction
			// commits (its architectural value is now known).
			p.flushFrom(flushBoundary)
			return
		}
	}
}

// retireInstControl trains the branch predictors at instruction
// retirement.
func (p *Processor) retireInstControl(di *dynInst) {
	in := &di.inst
	if in.Kind == isa.BranchNone {
		return
	}
	if in.Kind == isa.BranchCond {
		p.stats.BrCondRetired++
		if di.brPredOK {
			if di.brPred.Taken != in.Taken {
				p.stats.BrMispredicts++
				if p.h2pBr != nil {
					p.h2pBr.bump(in.PC)
				}
			}
			p.tage.Update(&di.brPred, in.Taken)
		}
	} else if di.uops[len(di.uops)-1].BrMispredicted {
		p.stats.BrMispredicts++
		if p.h2pBr != nil {
			p.h2pBr.bump(in.PC)
		}
	}
	if in.Taken && in.Kind != isa.BranchReturn {
		p.btb.Insert(in.PC, in.Target)
	}
}

func (p *Processor) inflightClear(u *UOp) {
	slot := u.Seq & (inflightRing - 1)
	if p.inflight[slot] == u {
		p.inflight[slot] = nil
	}
}

func (p *Processor) lqRemove(u *UOp) {
	for i := 0; i < p.lq.Len(); i++ {
		if p.lq.At(i) == u {
			p.lq.RemoveAt(i)
			return
		}
	}
}

func (p *Processor) sqRemove(u *UOp) {
	for i := 0; i < p.sq.Len(); i++ {
		if p.sq.At(i) == u {
			p.sq.RemoveAt(i)
			return
		}
	}
}
