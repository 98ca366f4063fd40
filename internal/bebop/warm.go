package bebop

import (
	"bebop/internal/branch"
	"bebop/internal/pipeline"
	"bebop/internal/predictor"
)

// WarmFetchBlock implements pipeline.VPWarmer: one D-VTAGE access per
// block occurrence, with attribution and training collapsed to a point.
// The fetch-time flow of OnFetchBlock is reproduced — byte-tag matching
// against the LVT entry in slot order, unmatched retired results
// claiming free slots — but the update block trains immediately instead
// of travelling through the speculative window and FIFO update queue:
// warming is in order, so the architectural value IS the in-flight last
// value, and training on the spot leaves no state a checkpoint would
// have to carry. Stats are untouched (warming precedes measurement).
func (b *BlockVP) WarmFetchBlock(blockPC uint64, hist *branch.History, uops []pipeline.WarmUOp) {
	bl := b.dvt.Lookup(blockPC, hist)
	np := b.dvt.NPred()

	var u predictor.UpdateBlock
	u.Lookup = bl

	var consumed [predictor.MaxNPred]bool
	anyUsed := false
	for i := range uops {
		w := &uops[i]
		if !w.Eligible {
			continue
		}
		// Fetch-time attribution: match the µ-op's boundary byte against
		// the per-slot byte tags, in slot order.
		slot := -1
		if bl.LVTHit {
			for m := 0; m < np; m++ {
				if consumed[m] || !bl.HasLast[m] {
					continue
				}
				if bl.ByteTags[m] != w.Boundary {
					continue
				}
				consumed[m] = true
				slot = m
				break
			}
		}
		predicted := slot >= 0 && bl.HasLast[slot]
		var predValue uint64
		if predicted {
			predValue = bl.Last[slot] + uint64(bl.Strides[slot])
		}
		if slot < 0 {
			// Retire-time slot claim, establishing the byte tag.
			for m := 0; m < np; m++ {
				if consumed[m] || u.Slots[m].Used {
					continue
				}
				slot = m
				break
			}
			if slot < 0 {
				continue // more results than Npred: prediction lost
			}
		}
		u.Slots[slot] = predictor.SlotUpdate{
			Used:         true,
			Actual:       w.Value,
			Predicted:    predValue,
			WasPredicted: predicted,
			ByteTag:      w.Boundary,
		}
		anyUsed = true
	}
	if anyUsed {
		b.dvt.Update(&u)
	}
}
