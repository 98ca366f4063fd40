package bebop

import (
	"bebop/internal/branch"
	"bebop/internal/pipeline"
	"bebop/internal/predictor"
	"bebop/internal/util"
)

// WarmFetchBlock implements pipeline.VPWarmer: one D-VTAGE access per
// block occurrence, with attribution and training collapsed to a point.
// Attribution runs in the pipeline's order through the same helpers:
// the whole block is matched against the byte tags first (matchSlot,
// as OnFetchBlock does), then the unmatched results claim free slots in
// program order (claimSlot, as OnRetire does). The update block trains
// immediately instead of travelling through the speculative window and
// FIFO update queue: warming is in order, so the architectural value IS
// the in-flight last value, and training on the spot leaves no state a
// checkpoint would have to carry. Stats are untouched (warming precedes
// measurement).
func (b *BlockVP) WarmFetchBlock(blockPC uint64, hist *branch.History, uops []pipeline.WarmUOp) {
	bl := b.dvt.Lookup(blockPC, hist)
	u := predictor.UpdateBlock{Lookup: bl}

	// Fetch: match every eligible µ-op; matchedAt lists the ones that
	// took a slot, in program order.
	var consumed [predictor.MaxNPred]bool
	var matchedAt [predictor.MaxNPred]int
	n := 0
	for i := range uops {
		w := &uops[i]
		if !w.Eligible {
			continue
		}
		slot := b.matchSlot(&bl, &consumed, w.Boundary)
		if slot < 0 {
			continue
		}
		u.Slots[slot] = predictor.SlotUpdate{
			Used:         true,
			Actual:       w.Value,
			Predicted:    bl.Last[slot] + uint64(bl.Strides[slot]),
			WasPredicted: true,
			ByteTag:      w.Boundary,
		}
		matchedAt[n] = i
		n++
	}

	// Retire: the unmatched results claim free slots in program order.
	anyUsed := n > 0
	k := 0
	for i := range uops {
		w := &uops[i]
		if !w.Eligible {
			continue
		}
		if k < n && matchedAt[k] == i {
			k++
			continue
		}
		slot := b.claimSlot(&consumed, &u.Slots)
		if slot < 0 {
			break // more results than Npred: the rest are lost
		}
		u.Slots[slot] = predictor.SlotUpdate{Used: true, Actual: w.Value, ByteTag: w.Boundary}
		anyUsed = true
	}
	if anyUsed {
		b.dvt.Update(&u)
	}
}

// AppendState implements pipeline.VPSnapshotter. The D-VTAGE tables are
// the only BeBoP state functional warming trains (WarmFetchBlock): the
// speculative window, the FIFO update queue and the counters change only
// in detailed runs, and checkpoints are taken before any.
func (b *BlockVP) AppendState(s []byte) []byte { return b.dvt.AppendState(s) }

// LoadState implements pipeline.VPSnapshotter.
func (b *BlockVP) LoadState(r *util.StateReader) error { return b.dvt.LoadState(r) }
