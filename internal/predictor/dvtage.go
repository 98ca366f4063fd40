package predictor

import (
	"bebop/internal/branch"
	"bebop/internal/util"
)

// DVTAGEConfig sizes a Differential VTAGE predictor (Section III). The
// predictor is organized block-based: every entry holds NPred prediction
// slots, one per potential result in the fetch block (NPred = 1 gives the
// per-instruction organization used in Section VI-A).
type DVTAGEConfig struct {
	// NPred is the number of prediction slots per entry (4, 6 or 8 in the
	// paper's sweeps; 1 for per-instruction operation).
	NPred int
	// BaseEntries sizes the base component; the LVT (last values +
	// byte-index tags) and VT0 (strides + confidence) are both direct
	// mapped with this many entries.
	BaseEntries int
	// LVTTagBits is the partial tag on the LVT ("we use small tags (e.g.
	// 5 bits) on the LVT to maximize accuracy").
	LVTTagBits int
	// TaggedEntries is the entry count of each tagged component.
	TaggedEntries int
	// HistLens gives the global history length of each tagged
	// component, geometric 2..64 over 6 components in the paper.
	HistLens []int
	// TagBitsLo is the partial tag width of the first tagged component;
	// it grows by one per component (13, 14, ... in Section V-B).
	TagBitsLo int
	// StrideBits is the stored stride width: 64, 32, 16 or 8. Partial
	// strides are the main storage lever (Section VI-B(a)).
	StrideBits int
	// FPCProbs is the forward probabilistic counter probability vector.
	FPCProbs []int
	// SpecWinEntries and SpecWinTagBits describe the attached speculative
	// window; they participate only in storage accounting (the window
	// itself lives in package specwindow).
	SpecWinEntries int
	SpecWinTagBits int
	// Seed drives the FPC and allocation randomness.
	Seed uint64
}

// DefaultDVTAGEConfig is the large exploration configuration of Section
// V-B: 8K-entry base, six 1K-entry tagged components, 64-bit strides,
// per-instruction (NPred = 1).
func DefaultDVTAGEConfig() DVTAGEConfig {
	return DVTAGEConfig{
		NPred:         1,
		BaseEntries:   8192,
		LVTTagBits:    5,
		TaggedEntries: 1024,
		HistLens:      []int{2, 4, 8, 16, 32, 64},
		TagBitsLo:     13,
		StrideBits:    64,
		FPCProbs:      DefaultFPCProbs(),
		Seed:          0xD57A6E,
	}
}

// StorageBits computes the predictor storage from first principles:
// LVT (block tag + NPred × (64-bit last value + 4-bit byte tag)), VT0
// (NPred × (stride + confidence)), tagged components (partial tag +
// usefulness + NPred × (stride + confidence)) and the speculative window
// (partial tag + 16-bit sequence number + NPred × (64-bit value + 4-bit
// byte tag)). This is the Table III accounting.
func (cfg DVTAGEConfig) StorageBits() int {
	confBits := 3
	byteTagBits := 4
	lvt := cfg.BaseEntries * (cfg.LVTTagBits + cfg.NPred*(64+byteTagBits))
	vt0 := cfg.BaseEntries * cfg.NPred * (cfg.StrideBits + confBits)
	tagged := 0
	for i := range cfg.HistLens {
		tagged += cfg.TaggedEntries * (cfg.TagBitsLo + i + 1 + cfg.NPred*(cfg.StrideBits+confBits))
	}
	spec := cfg.SpecWinEntries * (cfg.SpecWinTagBits + 16 + cfg.NPred*(64+byteTagBits))
	return lvt + vt0 + tagged + spec
}

// DVTAGE is the Differential VTAGE predictor: VTAGE structure, but tables
// hold strides instead of full values, and the base component is a stride
// predictor split into a Last Value Table and a stride/confidence table
// (VT0). Predictions are formed as lastValue + selectedStride where the
// stride comes from the longest matching tagged component, VTAGE-style.
//
// All tables are stored struct-of-arrays and sized to the configured
// NPred (not MaxNPred): the per-block lookup touches one tag lane per
// component plus exactly NPred slots of the providing entry, so the
// dense layout keeps a block access on a handful of cache lines — the
// simulator-side analogue of BeBoP's one-read-per-block organization.
// Per-entry slot state lives at entry*NPred in the slot-major slices.
type DVTAGE struct {
	cfg DVTAGEConfig

	// LVT: block tag/valid lanes plus NPred last values and byte-index
	// tags per entry (Section II-B1).
	lvtValid []bool
	lvtTags  []uint16
	lvtVals  []uint64
	lvtHas   []bool
	lvtBtag  []uint8

	// VT0: NPred strides and confidence counters per base entry.
	vt0Strides []int64
	vt0Conf    []uint8

	// The tagged components: a branch.Tagged core, and NPred strides and
	// confidence counters per tagged entry.
	tagged  *branch.Tagged
	strides []int64
	conf    []uint8

	fpc *FPC
}

// NewDVTAGE builds a D-VTAGE predictor.
func NewDVTAGE(cfg DVTAGEConfig) *DVTAGE {
	if cfg.NPred < 1 || cfg.NPred > MaxNPred {
		panic("predictor: NPred out of range")
	}
	if !util.IsPowerOfTwo(cfg.BaseEntries) {
		panic("predictor: D-VTAGE base entries must be a power of two")
	}
	tagged := branch.NewTagged(cfg.TaggedEntries, cfg.HistLens, tagWidths(cfg.TagBitsLo, len(cfg.HistLens)), 1, 1<<18, cfg.Seed^0xA110C)
	return &DVTAGE{
		cfg:        cfg,
		lvtValid:   make([]bool, cfg.BaseEntries),
		lvtTags:    make([]uint16, cfg.BaseEntries),
		lvtVals:    make([]uint64, cfg.BaseEntries*cfg.NPred),
		lvtHas:     make([]bool, cfg.BaseEntries*cfg.NPred),
		lvtBtag:    make([]uint8, cfg.BaseEntries*cfg.NPred),
		vt0Strides: make([]int64, cfg.BaseEntries*cfg.NPred),
		vt0Conf:    make([]uint8, cfg.BaseEntries*cfg.NPred),
		tagged:     tagged,
		strides:    make([]int64, tagged.Entries()*cfg.NPred),
		conf:       make([]uint8, tagged.Entries()*cfg.NPred),
		fpc:        NewFPC(cfg.FPCProbs, cfg.Seed),
	}
}

// NPred returns the number of prediction slots per entry.
func (d *DVTAGE) NPred() int { return d.cfg.NPred }

// StorageBits returns the storage budget in bits.
func (d *DVTAGE) StorageBits() int { return d.cfg.StorageBits() }

// BlockLookup is the result of reading all D-VTAGE components for one
// fetch block, before last values are (possibly) overridden by the
// speculative window and before strides are added. It doubles as the
// prediction-time metadata needed at update, carried through the FIFO
// update queue.
type BlockLookup struct {
	// LVTHit reports whether the LVT entry matched the block tag.
	LVTHit bool
	// Last and HasLast give per-slot last values from the LVT.
	Last    [MaxNPred]uint64
	HasLast [MaxNPred]bool
	// ByteTags are the per-slot byte-index tags used for attribution.
	ByteTags [MaxNPred]uint8
	// Strides and Conf come from the providing component.
	Strides [MaxNPred]int64
	Conf    [MaxNPred]uint8
	// Provider is the providing tagged component, -1 for VT0.
	Provider int8

	// prediction-time table positions
	lvtIdx  int32
	lvtTag  uint16
	indices [8]int32
	tags    [8]uint32
	// alternate strides for the usefulness computation
	altStrides [MaxNPred]int64
	altHas     bool
}

// lvtIndex derives a block's LVT index and tag from its index hash,
// util.Mix64 of the block PC.
func (d *DVTAGE) lvtIndex(h uint64) (int32, uint16) {
	idx := int32(h & uint64(len(d.lvtTags)-1))
	tag := uint16((h >> 48) & ((1 << d.cfg.LVTTagBits) - 1))
	return idx, tag
}

// Lookup reads the LVT, VT0 and all tagged components for blockPC under
// the given history. All components are accessed in parallel in hardware;
// the returned BlockLookup contains everything needed to form predictions
// and to train at retire time. The block PC is hashed once for indexes
// and once for tags, and both hashes serve every component.
func (d *DVTAGE) Lookup(blockPC uint64, hist *branch.History) BlockLookup {
	var bl BlockLookup
	np := d.cfg.NPred

	idxHash := util.Mix64(blockPC)
	bl.lvtIdx, bl.lvtTag = d.lvtIndex(idxHash)
	li := int(bl.lvtIdx)

	if d.lvtValid[li] && d.lvtTags[li] == bl.lvtTag {
		bl.LVTHit = true
		base := li * np
		for m := 0; m < np; m++ {
			bl.Last[m] = d.lvtVals[base+m]
			bl.HasLast[m] = d.lvtHas[base+m]
			bl.ByteTags[m] = d.lvtBtag[base+m]
		}
	}

	// Longest matching tagged component provides the strides; the next
	// hit (or VT0) is the alternate used for usefulness.
	prov, alt := d.tagged.Lookup(idxHash, util.Mix64(blockPC^0x9E37), hist, bl.indices[:], bl.tags[:])
	bl.Provider = int8(prov)
	vt0Base := li * np
	if prov >= 0 {
		base := int(bl.indices[prov]) * np
		for m := 0; m < np; m++ {
			bl.Strides[m] = d.strides[base+m]
			bl.Conf[m] = d.conf[base+m]
		}
		bl.altHas = true
		if alt >= 0 {
			abase := int(bl.indices[alt]) * np
			for m := 0; m < np; m++ {
				bl.altStrides[m] = d.strides[abase+m]
			}
		} else {
			for m := 0; m < np; m++ {
				bl.altStrides[m] = d.vt0Strides[vt0Base+m]
			}
		}
	} else {
		for m := 0; m < np; m++ {
			bl.Strides[m] = d.vt0Strides[vt0Base+m]
			bl.Conf[m] = d.vt0Conf[vt0Base+m]
		}
	}
	return bl
}

// PredictSlot forms the prediction for slot m given the (possibly
// speculative-window-overridden) last value.
func (d *DVTAGE) PredictSlot(bl *BlockLookup, m int, last uint64, hasLast bool) (value uint64, confident bool) {
	if !hasLast {
		return 0, false
	}
	return last + uint64(bl.Strides[m]), d.fpc.Saturated(bl.Conf[m])
}

// SlotUpdate is the retire-time information for one prediction slot.
type SlotUpdate struct {
	// Used reports whether a retired µ-op was attributed to this slot.
	Used bool
	// Actual is the retired architectural value.
	Actual uint64
	// Predicted is the value that was predicted at fetch time.
	Predicted uint64
	// WasPredicted reports whether the slot produced a prediction at all
	// (LVT hit with a valid last value).
	WasPredicted bool
	// ByteTag is the fetch-block byte offset of the attributed µ-op.
	ByteTag uint8
}

// UpdateBlock carries one retired block's training information.
type UpdateBlock struct {
	Lookup BlockLookup
	Slots  [MaxNPred]SlotUpdate
}

// Update trains the predictor with a retired block, following Section
// III-D(b): the providing entry is updated per slot; an entry is allocated
// in a higher component if at least one prediction in the block was wrong,
// with the confidence counters of correct slots propagated to the new
// entry; the usefulness bit is kept per block.
func (d *DVTAGE) Update(u *UpdateBlock) {
	bl := &u.Lookup
	np := d.cfg.NPred
	li := int(bl.lvtIdx)
	lvtBase := li * np

	lvtMatched := d.lvtValid[li] && d.lvtTags[li] == bl.lvtTag

	// Compute per-slot training strides before overwriting the LVT:
	// newStride = retired value - previous retired value of the slot.
	var newStride [MaxNPred]int64
	var haveStride [MaxNPred]bool
	anyWrong := false
	anyCorrect := false
	anyUseful := false
	for m := 0; m < np; m++ {
		s := &u.Slots[m]
		if !s.Used {
			continue
		}
		if lvtMatched && d.lvtHas[lvtBase+m] {
			newStride[m] = int64(s.Actual - d.lvtVals[lvtBase+m])
			haveStride[m] = true
		}
		if s.WasPredicted {
			if s.Predicted == s.Actual {
				anyCorrect = true
				if bl.altHas && bl.HasLast[m] {
					altPred := bl.Last[m] + uint64(bl.altStrides[m])
					if altPred != s.Actual {
						anyUseful = true
					}
				}
			} else {
				anyWrong = true
			}
		} else {
			// No prediction available counts as a (cold) miss for
			// allocation purposes so the block can be learned.
			anyWrong = true
		}
	}

	// Train the providing component's confidence and strides.
	var provStrides []int64
	var provConf []uint8
	if bl.Provider >= 0 {
		base := int(bl.indices[bl.Provider]) * np
		provStrides = d.strides[base : base+np]
		provConf = d.conf[base : base+np]
	} else {
		provStrides = d.vt0Strides[lvtBase : lvtBase+np]
		provConf = d.vt0Conf[lvtBase : lvtBase+np]
	}
	for m := 0; m < np; m++ {
		s := &u.Slots[m]
		if !s.Used {
			continue
		}
		correct := s.WasPredicted && s.Predicted == s.Actual
		if correct {
			provConf[m] = d.fpc.Correct(provConf[m])
		} else {
			provConf[m] = d.fpc.Wrong(provConf[m])
			if haveStride[m] {
				provStrides[m], _ = util.TruncateSigned(newStride[m], d.cfg.StrideBits)
			}
		}
	}

	// Usefulness bit, kept per block for tagged providers.
	if bl.Provider >= 0 {
		if anyUseful {
			d.tagged.TrainUseful(bl.indices[bl.Provider], true)
		} else if anyWrong && !anyCorrect {
			d.tagged.TrainUseful(bl.indices[bl.Provider], false)
		}
	}

	// Allocate on a wrong prediction in the block (Section III-D(b)).
	if anyWrong {
		d.allocate(u, &newStride, &haveStride, provStrides, provConf)
	}

	// LVT update: write retired values and apply the monotone byte-tag
	// rule ("a greater tag never replaces a lesser tag", Section II-B1);
	// the constraint does not apply when the entry is (re)allocated.
	if !lvtMatched {
		d.lvtValid[li] = true
		d.lvtTags[li] = bl.lvtTag
		for m := 0; m < np; m++ {
			d.lvtVals[lvtBase+m] = 0
			d.lvtHas[lvtBase+m] = false
			d.lvtBtag[lvtBase+m] = 0
			// Fresh VT0 state for a new block mapping.
			d.vt0Strides[lvtBase+m] = 0
			d.vt0Conf[lvtBase+m] = 0
		}
	}
	for m := 0; m < np; m++ {
		s := &u.Slots[m]
		if !s.Used {
			continue
		}
		if lvtMatched && d.lvtHas[lvtBase+m] && s.ByteTag > d.lvtBtag[lvtBase+m] {
			// Monotone rule: the slot keeps its lesser stored tag and the
			// value of the instruction that tag names.
			continue
		}
		d.lvtVals[lvtBase+m] = s.Actual
		d.lvtBtag[lvtBase+m] = s.ByteTag
		d.lvtHas[lvtBase+m] = true
	}

	d.tagged.Age()
}

// allocate claims a tagged entry above the provider for the block and
// fills its NPred slots.
func (d *DVTAGE) allocate(u *UpdateBlock, newStride *[MaxNPred]int64, haveStride *[MaxNPred]bool, provStrides []int64, provConf []uint8) {
	bl := &u.Lookup
	e := d.tagged.Allocate(int(bl.Provider), bl.indices[:], bl.tags[:])
	if e < 0 {
		return
	}
	np := d.cfg.NPred
	base := int(e) * np
	for m := 0; m < np; m++ {
		s := &u.Slots[m]
		correct := s.Used && s.WasPredicted && s.Predicted == s.Actual
		switch {
		case correct:
			// Confidence propagation: duplicate high-confidence
			// predictions into the new entry to preserve coverage.
			d.strides[base+m] = provStrides[m]
			d.conf[base+m] = provConf[m]
		case s.Used && haveStride[m]:
			d.conf[base+m] = 0
			d.strides[base+m], _ = util.TruncateSigned(newStride[m], d.cfg.StrideBits)
		default:
			// Keep the provider's stride as a best guess.
			d.strides[base+m] = provStrides[m]
			d.conf[base+m] = 0
		}
	}
}
