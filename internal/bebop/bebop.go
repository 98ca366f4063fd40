// Package bebop implements Block-Based value Prediction (BeBoP, Section
// II): the value predictor is accessed once per fetched 16-byte block with
// the block PC, returning a whole entry of Npred predictions that are then
// attributed to the block's µ-ops by matching instruction boundary bytes
// against small per-prediction tags. The package ties together the
// D-VTAGE predictor, the block-based speculative window and the FIFO
// update queue, and applies the squash recovery policies of Section IV-A.
package bebop

import (
	"bebop/internal/branch"
	"bebop/internal/pipeline"
	"bebop/internal/predictor"
	"bebop/internal/ring"
	"bebop/internal/specwindow"
)

// blockRec is one in-flight prediction block: a FIFO update queue entry.
// It is created when the block is fetched and predicted, accumulates
// retired values, and trains the predictor when a younger block retires.
//
// Records are pooled. gen counts lifetimes: it is bumped every time the
// record is freed, and µ-ops snapshot it at attribution (UOp.VPGen), so a
// µ-op holding a reference across the record's free — which happens under
// PolicyRepred, where the flush frees the head block while older,
// non-squashed µ-ops of that block are still in flight — is detected as
// stale and ignored instead of training through a recycled record. live
// guards against double frees.
type blockRec struct {
	gen  uint64
	live bool

	blockPC uint64
	seq     uint64 // sequence number of the first µ-op at creation
	lookup  predictor.BlockLookup

	// Per-slot prediction state at fetch time.
	pred   [predictor.MaxNPred]uint64
	predOK [predictor.MaxNPred]bool // a prediction was formed
	conf   [predictor.MaxNPred]bool // confidence saturated (usable)
	noUse  bool                     // DnRDnR: predictions must not be used

	// Attribution state: consumed marks slots handed to fetched µ-ops.
	consumed [predictor.MaxNPred]bool

	// Retire-time fill.
	slots   [predictor.MaxNPred]predictor.SlotUpdate
	anyUsed bool
}

// BlockVP is the pipeline-facing BeBoP infrastructure. It implements
// pipeline.VP.
type BlockVP struct {
	dvt    *predictor.DVTAGE
	win    *specwindow.Window
	policy specwindow.Policy

	// fifo is the FIFO update queue, oldest block first.
	fifo ring.Ring[*blockRec]
	// reuseRec, when set, is the flush-surviving head block whose
	// predictions the next fetch of the same block reuses (DnRR/DnRDnR).
	//bebop:nosnap set only by a detailed-run flush; checkpoints need a processor that has run no detailed cycle, so it is nil
	reuseRec *blockRec

	//bebop:nosnap free list of recycled records; checkpoints need a processor that has run no detailed cycle, so no live block references it
	pool []*blockRec
	//bebop:nosnap measurement counters; zeroed where the measured window starts, so no checkpoint carries them
	stats pipeline.VPStats
}

// Config assembles a BlockVP.
type Config struct {
	Predictor predictor.DVTAGEConfig
	// WindowSize: >0 bounded, 0 disabled, <0 unbounded.
	WindowSize int
	// WindowTagBits is the partial tag width (15 in the paper).
	WindowTagBits int
	Policy        specwindow.Policy
}

// New builds the BeBoP infrastructure. The predictor config's speculative
// window fields are synchronized for storage accounting.
func New(cfg Config) *BlockVP {
	pc := cfg.Predictor
	if cfg.WindowSize > 0 {
		pc.SpecWinEntries = cfg.WindowSize
		pc.SpecWinTagBits = cfg.WindowTagBits
	} else {
		pc.SpecWinEntries = 0
	}
	return &BlockVP{
		dvt:    predictor.NewDVTAGE(pc),
		win:    specwindow.New(cfg.WindowSize, cfg.WindowTagBits),
		policy: cfg.Policy,
	}
}

// Name implements pipeline.VP.
func (b *BlockVP) Name() string { return "BeBoP-D-VTAGE" }

// StorageBits implements pipeline.VP.
func (b *BlockVP) StorageBits() int { return b.dvt.StorageBits() }

// Stats implements pipeline.VP.
func (b *BlockVP) Stats() pipeline.VPStats {
	s := b.stats
	s.SpecWindowProbes = b.win.Probes
	s.SpecWindowHits = b.win.Hits
	return s
}

// ResetStats implements pipeline.VP.
func (b *BlockVP) ResetStats() {
	b.stats = pipeline.VPStats{}
	b.win.Probes, b.win.Hits = 0, 0
}

func (b *BlockVP) allocRec() *blockRec {
	if n := len(b.pool); n > 0 {
		r := b.pool[n-1]
		b.pool = b.pool[:n-1]
		*r = blockRec{gen: r.gen, live: true}
		return r
	}
	return &blockRec{live: true}
}

// freeRec retires a record: the generation bump invalidates every µ-op
// still holding a reference (their VPGen snapshot no longer matches).
func (b *BlockVP) freeRec(r *blockRec) {
	if !r.live {
		panic("bebop: blockRec double free")
	}
	r.live = false
	r.gen++
	if len(b.pool) < 256 {
		b.pool = append(b.pool, r)
	}
}

// recOf resolves a µ-op's record reference, returning nil when the µ-op
// was never attributed or its record has since been freed (stale).
func recOf(u *pipeline.UOp) *blockRec {
	rec, _ := u.VPRec.(*blockRec)
	if rec == nil || !rec.live || rec.gen != u.VPGen {
		return nil
	}
	return rec
}

// OnFetchBlock implements pipeline.VP: one predictor access per block
// occurrence. If the previous squash left a reusable head block for this
// block PC (DnRR/DnRDnR), its predictions are reused without re-accessing
// the predictor; otherwise all D-VTAGE components are read, the
// speculative window supplies in-flight last values, strides are added,
// and the resulting prediction block is pushed into both the window and
// the FIFO update queue.
func (b *BlockVP) OnFetchBlock(blockPC, firstSeq uint64, hist *branch.History, uops []*pipeline.UOp) {
	if rec := b.reuseRec; rec != nil {
		b.reuseRec = nil
		if rec.blockPC == blockPC {
			b.attribute(rec, uops)
			return
		}
	}

	rec := b.allocRec()
	rec.blockPC = blockPC
	rec.seq = firstSeq
	rec.lookup = b.dvt.Lookup(blockPC, hist)

	// Speculative window override of the LVT last values (Section III-C:
	// if the same block was fetched recently, its predicted values are
	// the last values for this instance).
	last := rec.lookup.Last
	hasLast := rec.lookup.HasLast
	if !rec.lookup.LVTHit {
		for m := range hasLast {
			hasLast[m] = false
		}
	}
	if e := b.win.Lookup(blockPC); e != nil {
		vals, has := e.Values()
		for m := 0; m < b.dvt.NPred(); m++ {
			if has[m] {
				last[m] = vals[m]
				hasLast[m] = true
			}
		}
	}

	var winVals [predictor.MaxNPred]uint64
	var winHas [predictor.MaxNPred]bool
	for m := 0; m < b.dvt.NPred(); m++ {
		v, confident := b.dvt.PredictSlot(&rec.lookup, m, last[m], hasLast[m])
		rec.pred[m] = v
		rec.predOK[m] = hasLast[m]
		rec.conf[m] = confident && hasLast[m]
		winVals[m] = v
		winHas[m] = hasLast[m]
	}

	b.win.Insert(blockPC, firstSeq, winVals, winHas)
	b.fifo.PushBack(rec)
	b.attribute(rec, uops)
}

// attribute hands the record's predictions to the block's µ-ops at
// fetch (matchSlot). µ-ops with no matching slot stay unpredicted and
// will claim a free slot at retirement (claimSlot), teaching the entry
// the block's real layout.
func (b *BlockVP) attribute(rec *blockRec, uops []*pipeline.UOp) {
	for _, u := range uops {
		u.VPRec = rec
		u.VPGen = rec.gen
		u.VPSlot = -1
		if !u.Eligible {
			continue
		}
		if m := b.matchSlot(&rec.lookup, &rec.consumed, u.Boundary); m >= 0 {
			u.VPSlot = int8(m)
			u.Predicted = rec.predOK[m]
			u.PredValue = rec.pred[m]
			u.PredConfident = rec.conf[m] && !rec.noUse
		}
	}
}

// matchSlot is the fetch-time half of attribution (Section II-B1,
// Fig. 2): a result-producing µ-op takes the first slot, in slot order,
// that is not yet handed out and whose byte tag equals the µ-op's
// instruction boundary byte. It marks the slot consumed and returns it,
// or -1 when none matches (an LVT miss has no byte tags to match yet).
// Every µ-op of a block is matched before any of them claims a slot.
func (b *BlockVP) matchSlot(l *predictor.BlockLookup, consumed *[predictor.MaxNPred]bool, boundary uint8) int {
	if !l.LVTHit {
		return -1
	}
	for m := 0; m < b.dvt.NPred(); m++ {
		if !consumed[m] && l.HasLast[m] && l.ByteTags[m] == boundary {
			consumed[m] = true
			return m
		}
	}
	return -1
}

// claimSlot is the retire-time half of attribution: a result that
// matched no slot at fetch claims the first slot neither handed out at
// fetch nor claimed by an older result of the block, establishing its
// byte tag. It returns -1 when the block has more results than Npred
// (the prediction is lost).
func (b *BlockVP) claimSlot(consumed *[predictor.MaxNPred]bool, slots *[predictor.MaxNPred]predictor.SlotUpdate) int {
	for m := 0; m < b.dvt.NPred(); m++ {
		if !consumed[m] && !slots[m].Used {
			return m
		}
	}
	return -1
}

// OnRetire implements pipeline.VP: retired µ-ops fill their block's update
// slots; µ-ops that fetched no slot claim a free one, establishing its
// byte tag. A retire belonging to a younger block finalizes and trains all
// older blocks ("an entry is updated as soon as an instruction belonging
// to a block different than the one being built is retired").
//
// A µ-op whose record was freed under it (PolicyRepred flush, see
// blockRec) is ignored: walking the FIFO towards a record that is no
// longer in it would otherwise train and drain every in-flight block and
// write the slot update into a recycled record owned by another block.
func (b *BlockVP) OnRetire(u *pipeline.UOp) {
	rec := recOf(u)
	if rec == nil {
		return
	}
	// Train every strictly older completed block.
	for b.fifo.Len() > 0 && b.fifo.Front() != rec {
		b.train(b.fifo.PopFront())
	}

	if !u.Eligible {
		return
	}
	b.stats.Eligible++
	slot := int(u.VPSlot)
	if slot < 0 {
		if slot = b.claimSlot(&rec.consumed, &rec.slots); slot < 0 {
			return // block has more results than Npred: prediction lost
		}
	} else {
		b.stats.Attributed++
		if u.PredConfident {
			b.stats.Used++
			if u.PredValue == u.Value {
				b.stats.UsedCorrect++
			}
		}
	}
	rec.slots[slot] = predictor.SlotUpdate{
		Used:         true,
		Actual:       u.Value,
		Predicted:    u.PredValue,
		WasPredicted: u.Predicted,
		ByteTag:      u.Boundary,
	}
	rec.anyUsed = true
}

// train pushes a completed update block into D-VTAGE and invalidates the
// block's speculative window entry (its values are now architectural, in
// the LVT).
func (b *BlockVP) train(rec *blockRec) {
	if rec.anyUsed {
		u := predictor.UpdateBlock{Lookup: rec.lookup, Slots: rec.slots}
		b.dvt.Update(&u)
	}
	b.win.InvalidateSeq(rec.seq)
	if b.reuseRec == rec {
		b.reuseRec = nil
	}
	b.freeRec(rec)
}

// OnSquash implements pipeline.VP: a squashed µ-op releases its slot so a
// refetch can re-attribute it. Stale references (record already freed and
// possibly recycled for another block) are dropped without touching the
// record: clearing consumed state through them would corrupt the new
// owner's attribution.
func (b *BlockVP) OnSquash(u *pipeline.UOp) {
	if rec := recOf(u); rec != nil && u.VPSlot >= 0 {
		rec.consumed[u.VPSlot] = false
	}
	u.VPRec = nil
	u.VPGen = 0
	u.VPSlot = -1
}

// OnFlush implements pipeline.VP: entries younger than the flush are
// discarded from both the speculative window and the FIFO update queue;
// when the first refetched instruction belongs to the flush block itself,
// the configured recovery policy decides whether its surviving prediction
// block is reused, quarantined or re-predicted (Section IV-A).
func (b *BlockVP) OnFlush(keepSeq uint64, newBlockPC uint64) {
	// Roll back strictly-younger blocks. Their µ-ops were all squashed
	// (and detached) before OnFlush, so freeing is safe.
	for b.fifo.Len() > 0 && b.fifo.Back().seq > keepSeq {
		b.freeRec(b.fifo.PopBack())
	}
	b.win.SquashYoungerThan(keepSeq)
	b.reuseRec = nil

	if b.fifo.Len() == 0 {
		return
	}
	head := b.fifo.Back()
	if head.blockPC != newBlockPC {
		return
	}
	switch b.policy {
	case specwindow.PolicyIdeal:
		// Instruction-grained tracking: older µ-ops' predictions survive
		// in the head block; the refetch re-predicts through a fresh
		// block that chains off the head's window entry. Nothing to do.
	case specwindow.PolicyRepred:
		// Squash the head; the refetch re-predicts from scratch. Older,
		// non-squashed µ-ops of the head block may still be in flight
		// holding references — the generation bump in freeRec makes them
		// stale, so their later retire/squash callbacks are no-ops.
		b.win.InvalidateSeq(head.seq)
		b.fifo.PopBack()
		b.freeRec(head)
	case specwindow.PolicyDnRR:
		head.noUse = false
		b.reuseRec = head
	case specwindow.PolicyDnRDnR:
		head.noUse = true
		b.reuseRec = head
	}
}
