package predictor

import "bebop/internal/branch"

// DVTAGEInst adapts a 1-slot D-VTAGE to the per-instruction Predictor
// interface used by the Section VI-A potential study (no BeBoP): the
// predictor is indexed with the instruction PC XORed with the µ-op index
// and an idealistic instruction-grained speculative window supplies the
// speculative last value.
type DVTAGEInst struct {
	d *DVTAGE
}

// NewDVTAGEInst builds the adapter; cfg.NPred is forced to 1.
func NewDVTAGEInst(cfg DVTAGEConfig) *DVTAGEInst {
	cfg.NPred = 1
	return &DVTAGEInst{d: NewDVTAGE(cfg)}
}

// Name implements Predictor.
func (p *DVTAGEInst) Name() string { return "D-VTAGE" }

// StorageBits implements Predictor.
func (p *DVTAGEInst) StorageBits() int { return p.d.StorageBits() }

// Predict implements Predictor.
func (p *DVTAGEInst) Predict(pc uint64, uopIdx int, hist *branch.History, specLast uint64, hasSpecLast bool) Outcome {
	key := instKey(pc, uopIdx)
	bl := p.d.Lookup(key, hist)

	last, hasLast := bl.Last[0], bl.LVTHit && bl.HasLast[0]
	if hasSpecLast {
		// The speculative window overrides the retired last value with the
		// most recent in-flight one (Section III-D(a)).
		last, hasLast = specLast, true
	}
	value, confident := p.d.PredictSlot(&bl, 0, last, hasLast)

	var o Outcome
	o.Predicted = hasLast
	o.Confident = confident && hasLast
	o.Value = value
	// Pack the BlockLookup metadata into the Outcome so Update can rebuild
	// it without allocation.
	o.provider = bl.Provider
	o.baseIdx = bl.lvtIdx
	o.indices = bl.indices
	o.tags = bl.tags
	o.tags[6] = uint32(bl.lvtTag)
	o.stride = bl.Strides[0]
	o.lastUsed = bl.Last[0]
	o.hasLast = bl.LVTHit && bl.HasLast[0]
	o.aux2 = uint64(bl.Conf[0])
	if bl.altHas {
		o.aux2 |= 1 << 8
	}
	if bl.LVTHit {
		o.aux2 |= 1 << 9
	}
	o.aux3 = uint64(bl.altStrides[0])
	return o
}

// Update implements Predictor.
func (p *DVTAGEInst) Update(o *Outcome, actual uint64) {
	var u UpdateBlock
	bl := &u.Lookup
	bl.Provider = o.provider
	bl.lvtIdx = o.baseIdx
	bl.lvtTag = uint16(o.tags[6])
	bl.indices = o.indices
	bl.tags = o.tags
	bl.Strides[0] = o.stride
	bl.Conf[0] = uint8(o.aux2)
	bl.altHas = o.aux2&(1<<8) != 0
	bl.LVTHit = o.aux2&(1<<9) != 0
	bl.Last[0] = o.lastUsed
	bl.HasLast[0] = o.hasLast
	bl.altStrides[0] = int64(o.aux3)

	u.Slots[0] = SlotUpdate{
		Used:         true,
		Actual:       actual,
		Predicted:    o.Value,
		WasPredicted: o.Predicted,
		ByteTag:      0,
	}
	p.d.Update(&u)
}
