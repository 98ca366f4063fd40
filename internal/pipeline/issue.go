package pipeline

import "bebop/internal/isa"

// The issue queue is event-driven (wakeup/select). An IQ µ-op looks up
// its two producers once, at dispatch. An operand whose producer has
// committed, carries a confident prediction or has executed is known
// available from a fixed cycle (the producer's DoneAt); every other
// producer is still waiting in the IQ, and its value can only become
// available by issuing. The consumer links itself onto that producer's
// wait list, and the producer wakes it when it issues. A µ-op with no
// pending operand waits in the timed heap until its ready cycle, then
// joins the ready list, which is kept in age (Seq) order; issueStage
// visits only that list.
//
// Issuing ready µ-ops in age order, and applying the FU budgets to them
// alone, makes the same picks as sweeping the whole IQ in age order: an
// entry that is not ready never consumes an FU budget or the width count.

// waitLink names one operand of a waiting consumer: an entry of a
// producer's wait list.
type waitLink struct {
	u  *UOp
	op uint8
}

// issueStage picks up to IssueWidth ready µ-ops in age order and sends
// them to the functional units of Table I, releasing IQ entries on
// issue. Loads check the store queue for forwarding and the store-set
// predictor for ordering; stores check for memory-order violations
// against already-executed younger loads.
//
// The stage runs in three phases: (1) move the µ-ops due this cycle from
// the timed heap to the ready list; (2) walk the ready list in age order,
// issuing µ-ops and compacting the survivors in place; (3) run the
// deferred memory-order violation checks of the issued stores. The
// deferral matters: a violation squashes (flushFrom truncates the ready
// list), which must not happen while the walk is rewriting it. An issued
// producer's DoneAt is at least now+1, so nothing it wakes can issue in
// the walk that issued it.
func (p *Processor) issueStage() {
	p.wakeDue()
	alu := p.cfg.FU.ALU
	muldiv := p.cfg.FU.MulDiv
	fp := p.cfg.FU.FP
	fpmul := p.cfg.FU.FPMul
	ldst := p.cfg.FU.LdStPorts
	st := p.cfg.FU.StPorts
	issued := 0

	p.issuedStores = p.issuedStores[:0]
	q := p.readyQ
	w := 0
	for i, u := range q {
		if issued >= p.cfg.IssueWidth {
			w += copy(q[w:], q[i:])
			break
		}
		ok := false
		switch u.Class {
		case isa.ClassALU, isa.ClassBranch, isa.ClassNop:
			if alu > 0 {
				alu--
				ok = true
			}
		case isa.ClassMul:
			if muldiv > 0 {
				muldiv--
				ok = true
			}
		case isa.ClassDiv:
			if muldiv > 0 && p.now >= p.divBusyUntil {
				muldiv--
				ok = true
				p.divBusyUntil = p.now + classLatency(isa.ClassDiv)
			}
		case isa.ClassFP:
			if fp > 0 {
				fp--
				ok = true
			}
		case isa.ClassFPMul:
			if fpmul > 0 {
				fpmul--
				ok = true
			}
		case isa.ClassFPDiv:
			if fpmul > 0 && p.now >= p.fpDivBusyUntil {
				fpmul--
				ok = true
				p.fpDivBusyUntil = p.now + classLatency(isa.ClassFPDiv)
			}
		case isa.ClassLoad:
			if ldst > 0 && p.loadMayIssue(u) {
				ldst--
				ok = true
			}
		case isa.ClassStore:
			if st > 0 {
				st--
				ok = true
			} else if ldst > 0 {
				ldst--
				ok = true
			}
		}
		if !ok {
			q[w] = u
			w++
			continue
		}
		issued++
		p.issue(u)
	}
	clear(q[w:])
	p.readyQ = q[:w]
	for _, s := range p.issuedStores {
		// A violation flush triggered by an older store may have squashed
		// this one; a squashed store's check is void.
		if !s.Squashed {
			p.checkMemOrderViolation(s)
		}
	}
}

func (p *Processor) issue(u *UOp) {
	u.Issued = true
	u.InIQ = false
	p.iqCount--
	u.Executed = true

	switch u.Class {
	case isa.ClassLoad:
		u.DoneAt = p.executeLoad(u)
		p.stats.LoadsExecuted++
	case isa.ClassStore:
		u.DoneAt = p.now + classLatency(u.Class)
		p.issuedStores = append(p.issuedStores, u)
	default:
		u.DoneAt = p.now + classLatency(u.Class)
	}
	p.wakeConsumers(u)
}

// producerReady reports when the value of producer seq can be consumed:
// from cycle at, or, when pending is non-nil, only once that producer
// (an IQ µ-op not yet issued) issues. A producer that has committed
// (lookup finds nothing) or wrote a confident prediction to the PRF at
// dispatch is available at once; an executed one at its DoneAt.
func (p *Processor) producerReady(seq uint64) (at int64, pending *UOp) {
	if seq == 0 {
		return 0, nil
	}
	prod := p.lookup(seq)
	switch {
	case prod == nil, prod.PredConfident && prod.Dispatched:
		return 0, nil
	case prod.Executed:
		return prod.DoneAt, nil
	}
	return 0, prod
}

// operandsReady reports whether both of u's operands are available at
// the current cycle (the EOLE early-execution test at dispatch).
func (p *Processor) operandsReady(u *UOp) bool {
	for _, seq := range u.dep {
		if at, pending := p.producerReady(seq); pending != nil || at > p.now {
			return false
		}
	}
	return true
}

// enterIQ places a µ-op dispatched into the IQ: on the wait list of each
// producer still waiting to issue, else on the ready list when it may
// issue next cycle (it is the youngest IQ µ-op, so appending keeps the
// list in age order), else in the timed heap.
func (p *Processor) enterIQ(u *UOp) {
	u.InIQ = true
	p.iqCount++
	u.readyAt = p.now + 1
	for i, seq := range u.dep {
		at, prod := p.producerReady(seq)
		if prod != nil {
			u.waitNext[i] = prod.waiters
			prod.waiters = waitLink{u: u, op: uint8(i)}
			u.pending++
		} else if at > u.readyAt {
			u.readyAt = at
		}
	}
	if u.pending > 0 {
		return
	}
	if u.readyAt <= p.now+1 {
		p.readyQ = append(p.readyQ, u)
	} else {
		p.timed.push(u)
	}
}

// wakeConsumers walks the wait list of u, which just issued: each
// consumer learns u's completion cycle, and one with no operand left
// pending enters the timed heap. u.DoneAt > now, so none is due before
// the next cycle's issueStage.
func (p *Processor) wakeConsumers(u *UOp) {
	for w := u.waiters; w.u != nil; w = w.u.waitNext[w.op] {
		c := w.u
		if u.DoneAt > c.readyAt {
			c.readyAt = u.DoneAt
		}
		c.pending--
		if c.pending == 0 {
			p.timed.push(c)
		}
	}
	u.waiters = waitLink{}
}

// wakeDue moves every heap entry due by now onto the ready list, in age
// order. Entries of µ-ops squashed (or recycled under a new Seq) since
// they were pushed are dropped.
func (p *Processor) wakeDue() {
	for p.timed.dueBy(p.now) {
		e := p.timed.pop()
		u := e.u
		if u.Seq != e.seq || !u.InIQ {
			continue
		}
		q := append(p.readyQ, u)
		i := len(q) - 1
		for i > 0 && q[i-1].Seq > u.Seq {
			q[i] = q[i-1]
			i--
		}
		q[i] = u
		p.readyQ = q
	}
}

// unlinkSquashed drops the squashed consumers (Seq > keepSeq) from the
// wait list of a surviving producer. Consumers prepend themselves in
// dispatch order, so they form a prefix of the list.
func (u *UOp) unlinkSquashed(keepSeq uint64) {
	w := u.waiters
	for w.u != nil && w.u.Seq > keepSeq {
		w = w.u.waitNext[w.op]
	}
	u.waiters = w
}

// dropSquashedReady removes squashed µ-ops (Seq > keepSeq) from the
// ready list: being the youngest, they form its tail.
func (p *Processor) dropSquashedReady(keepSeq uint64) {
	q := p.readyQ
	n := len(q)
	for n > 0 && q[n-1].Seq > keepSeq {
		n--
	}
	clear(q[n:])
	p.readyQ = q[:n]
}

// loadMayIssue enforces memory dependence ordering: a load waits for its
// store-set-predicted producer store, and for any older same-address store
// whose data is not yet available (no speculative bypassing of unresolved
// same-address stores; unknown-address stores are speculatively bypassed,
// which is what store sets exist to police).
//
// The store-queue walk doubles as the forwarding search: when the load may
// issue, p.fwdStore holds the youngest older matching store (every match
// is then known complete), so executeLoad — which runs immediately after,
// with no store state change in between — does not re-scan the queue.
func (p *Processor) loadMayIssue(u *UOp) bool {
	p.fwdStore = nil
	if u.StoreDepSeq != 0 {
		if s := p.lookup(u.StoreDepSeq); s != nil && !(s.Executed && p.now >= s.DoneAt) {
			return false
		}
	}
	var fwd *UOp
	for i := 0; i < p.sq.Len(); i++ {
		s := p.sq.At(i)
		if s.Seq >= u.Seq {
			break
		}
		if s.Issued && sameWord(s.Addr, u.Addr) {
			if p.now < s.DoneAt {
				return false
			}
			fwd = s
		}
	}
	p.fwdStore = fwd
	return true
}

// executeLoad returns the load's completion cycle: store-to-load forward
// from the youngest older matching store (found by loadMayIssue in the
// same cycle), or a D-cache access (1 cycle of address generation + the
// hierarchy latency).
func (p *Processor) executeLoad(u *UOp) int64 {
	if fwd := p.fwdStore; fwd != nil {
		p.fwdStore = nil
		p.stats.StoreForwards++
		done := p.now + 2
		if fwd.DoneAt+1 > done {
			done = fwd.DoneAt + 1
		}
		return done
	}
	return p.mem.ReadData(u.PC, u.Addr, p.now+1)
}

// checkMemOrderViolation detects loads that issued before an older
// same-address store: the load consumed stale data, so everything from the
// load's instruction onward squashes and the store set predictor learns
// the pair (Section V-A: store sets allow independent memory instructions
// to issue out of order).
func (p *Processor) checkMemOrderViolation(store *UOp) {
	var victim *UOp
	for i := 0; i < p.lq.Len(); i++ {
		l := p.lq.At(i)
		if l.Seq <= store.Seq || !l.Issued {
			continue
		}
		if sameWord(l.Addr, store.Addr) && (victim == nil || l.Seq < victim.Seq) {
			victim = l
		}
	}
	if victim == nil {
		return
	}
	p.sset.Violation(victim.PC, store.PC)
	p.stats.MemOrderFlushes++
	// Squash from the load's instruction onward and refetch.
	p.flushFrom(victim.inst.uops[0].Seq - 1)
}

// sameWord compares addresses at 8-byte granularity, the conflict
// resolution grain of the LSQ.
func sameWord(a, b uint64) bool { return a>>3 == b>>3 }
