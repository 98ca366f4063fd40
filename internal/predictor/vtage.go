package predictor

import (
	"bebop/internal/branch"
	"bebop/internal/util"
)

// VTAGEConfig sizes a VTAGE predictor (Perais & Seznec, HPCA 2014): a
// tagless last-value base table and NumComps partially tagged components
// indexed with a hash of the PC, the global branch history and the path
// history, with geometrically growing history lengths.
type VTAGEConfig struct {
	BaseEntries int
	CompEntries int
	NumComps    int
	HistLens    []int // per component; geometric 2..64 by default
	TagBitsLo   int   // tag width of component 0; +1 per component
	FPCProbs    []int
	Seed        uint64
}

// DefaultVTAGEConfig is the configuration of Section V-B transposed from
// [25]: an 8K-entry base component and six 1K-entry tagged components,
// partial tags 13..18 bits, history lengths 2..64 geometric.
func DefaultVTAGEConfig() VTAGEConfig {
	return VTAGEConfig{
		BaseEntries: 8192,
		CompEntries: 1024,
		NumComps:    6,
		HistLens:    []int{2, 4, 8, 16, 32, 64},
		TagBitsLo:   13,
		FPCProbs:    DefaultFPCProbs(),
		Seed:        0x57A6E,
	}
}

// VTAGE is the per-instruction VTAGE value predictor: a direct application
// of the TAGE branch predictor to value prediction. The base component is a
// tagless last value predictor; each tagged component is a gshare-like
// value table using a different global history length. Components are
// stored struct-of-arrays (tag, value, confidence and usefulness lanes),
// so the provider scan touches dense tag lanes instead of striding over
// 16-byte entries.
type VTAGE struct {
	base    []lvEntry
	comps   []vtageComp
	idxBits int // log2(CompEntries), shared by every component
	fpc     *FPC
	rng     *util.RNG
	tick    int
}

type vtageComp struct {
	values  []uint64
	tags    []uint32
	conf    []uint8
	useful  []bool
	mask    uint64 // CompEntries-1 (power of two)
	histLen int
	tagBits int
	idxBits int
}

// NewVTAGE builds a VTAGE predictor.
func NewVTAGE(cfg VTAGEConfig) *VTAGE {
	if !util.IsPowerOfTwo(cfg.BaseEntries) || !util.IsPowerOfTwo(cfg.CompEntries) {
		panic("predictor: VTAGE table sizes must be powers of two")
	}
	if len(cfg.HistLens) != cfg.NumComps {
		panic("predictor: VTAGE needs one history length per component")
	}
	v := &VTAGE{
		base:    make([]lvEntry, cfg.BaseEntries),
		idxBits: util.Log2(cfg.CompEntries),
		fpc:     NewFPC(cfg.FPCProbs, cfg.Seed),
		rng:     util.NewRNG(cfg.Seed ^ 0xC0FFEE),
	}
	for i := 0; i < cfg.NumComps; i++ {
		v.comps = append(v.comps, vtageComp{
			values:  make([]uint64, cfg.CompEntries),
			tags:    make([]uint32, cfg.CompEntries),
			conf:    make([]uint8, cfg.CompEntries),
			useful:  make([]bool, cfg.CompEntries),
			mask:    uint64(cfg.CompEntries - 1),
			histLen: cfg.HistLens[i],
			tagBits: cfg.TagBitsLo + i,
			idxBits: v.idxBits,
		})
	}
	return v
}

func (v *VTAGE) Name() string { return "VTAGE" }

// RegisterFolds declares every (histLen, width) fold the tagged
// components perform with the history's incremental folded-register file.
func (v *VTAGE) RegisterFolds(h *branch.History) {
	for i := range v.comps {
		c := &v.comps[i]
		h.RegisterFold(c.histLen, c.idxBits)
		h.RegisterFold(c.histLen, c.tagBits)
		h.RegisterFold(c.histLen, c.tagBits-1)
	}
}

// Predict implements Predictor. VTAGE ignores the speculative last value:
// its predictions never depend on in-flight results, one of its key
// implementation advantages (Section III-B). The instruction key is
// hashed once (for indexes and for tags) and shared by every component,
// as is the path fold.
func (v *VTAGE) Predict(pc uint64, uopIdx int, hist *branch.History, _ uint64, _ bool) Outcome {
	key := instKey(pc, uopIdx)
	var o Outcome
	o.provider = -1
	idxHash := util.Mix64(key)
	tagHash := util.Mix64(key ^ 0x9E37)
	o.baseIdx = int32(idxHash & uint64(len(v.base)-1))
	pathFold := util.FoldBits(hist.Path(), 16, v.idxBits)
	for i := range v.comps {
		c := &v.comps[i]
		folded := hist.Fold(c.histLen, c.idxBits)
		o.indices[i] = int32((idxHash ^ folded ^ pathFold<<1) & c.mask)
		f1 := hist.Fold(c.histLen, c.tagBits)
		f2 := hist.Fold(c.histLen, c.tagBits-1)
		o.tags[i] = uint32((tagHash ^ f1 ^ f2<<1) & ((uint64(1) << c.tagBits) - 1))
	}
	// Longest-history hit provides; remember the next-longest as alternate
	// for the usefulness computation.
	for i := len(v.comps) - 1; i >= 0; i-- {
		c := &v.comps[i]
		idx := o.indices[i]
		if c.tags[idx] == o.tags[i] {
			if o.provider == -1 {
				o.provider = int8(i)
				o.Predicted = true
				o.Value = c.values[idx]
				o.Confident = v.fpc.Saturated(c.conf[idx])
			} else {
				o.altPred = true
				o.altValue = c.values[idx]
				break
			}
		}
	}
	if o.provider == -1 {
		be := &v.base[o.baseIdx]
		o.Predicted = true
		o.Value = be.value
		o.Confident = v.fpc.Saturated(be.conf)
	} else if !o.altPred {
		// Alternate is the base prediction.
		o.altPred = true
		o.altValue = v.base[o.baseIdx].value
	}
	return o
}

// Update implements Predictor, following the VTAGE update policy: update
// the provider; on a wrong prediction allocate in a higher component; keep
// a usefulness bit driving allocation victim choice; periodically reset
// usefulness.
func (v *VTAGE) Update(o *Outcome, actual uint64) {
	correct := o.Value == actual
	if o.provider >= 0 {
		c := &v.comps[o.provider]
		idx := o.indices[o.provider]
		if correct {
			c.conf[idx] = v.fpc.Correct(c.conf[idx])
			// Useful iff correct and the alternate prediction differs.
			if o.altPred && o.altValue != actual {
				c.useful[idx] = true
			}
		} else {
			c.conf[idx] = v.fpc.Wrong(c.conf[idx])
			c.values[idx] = actual
			if o.altPred && o.altValue == actual {
				c.useful[idx] = false
			}
		}
	} else {
		be := &v.base[o.baseIdx]
		if correct {
			be.conf = v.fpc.Correct(be.conf)
		} else {
			be.conf = v.fpc.Wrong(be.conf)
			be.value = actual
		}
	}
	if !correct && int(o.provider) < len(v.comps)-1 {
		v.allocate(o, actual)
	}
	v.tick++
	if v.tick >= 1<<18 {
		v.tick = 0
		for i := range v.comps {
			u := v.comps[i].useful
			for j := range u {
				u[j] = false
			}
		}
	}
}

func (v *VTAGE) allocate(o *Outcome, actual uint64) {
	start := int(o.provider) + 1
	free := 0
	for i := start; i < len(v.comps); i++ {
		if !v.comps[i].useful[o.indices[i]] {
			free++
		}
	}
	if free == 0 {
		// All useful: reset them, allocate nothing (Section III-A).
		for i := start; i < len(v.comps); i++ {
			v.comps[i].useful[o.indices[i]] = false
		}
		return
	}
	pick := v.rng.Intn(free)
	if free > 1 && v.rng.Bool(0.5) {
		pick = 0
	}
	for i := start; i < len(v.comps); i++ {
		c := &v.comps[i]
		idx := o.indices[i]
		if c.useful[idx] {
			continue
		}
		if pick == 0 {
			c.values[idx] = actual
			c.tags[idx] = o.tags[i]
			c.conf[idx] = 0
			c.useful[idx] = false
			return
		}
		pick--
	}
}

// StorageBits implements Predictor.
func (v *VTAGE) StorageBits() int {
	bits := len(v.base) * (64 + v.fpc.Bits())
	for i := range v.comps {
		c := &v.comps[i]
		bits += len(c.values) * (64 + c.tagBits + v.fpc.Bits() + 1)
	}
	return bits
}

// VTAGE2dStride is the naive hybrid of Fig. 5(a): a VTAGE and a 2-delta
// Stride predictor side by side, both trained for every instruction, with
// a simple confidence-based arbitration (never predict when both are
// confident but disagree). Its space inefficiency is the motivation for
// D-VTAGE (Section III-B).
type VTAGE2dStride struct {
	V *VTAGE
	S *TwoDeltaStride
}

// NewVTAGE2dStride builds the hybrid with the given component sizes.
func NewVTAGE2dStride(vcfg VTAGEConfig, strideEntries int) *VTAGE2dStride {
	return &VTAGE2dStride{
		V: NewVTAGE(vcfg),
		S: NewTwoDeltaStride(strideEntries, vcfg.Seed^0x5712DE),
	}
}

func (h *VTAGE2dStride) Name() string { return "VTAGE-2d-Stride" }

// RegisterFolds forwards fold registration to the VTAGE component (the
// stride side folds no history).
func (h *VTAGE2dStride) RegisterFolds(hist *branch.History) { h.V.RegisterFolds(hist) }

// hybridOutcome packs both component outcomes; the exported Outcome fields
// reflect the arbitration result and the component outcomes ride along in
// the meta fields via a side table would cost allocations, so instead we
// re-derive them at update time: both components are deterministic given
// their stored indices, which we keep by re-running Predict piecewise.
// To stay allocation-free the hybrid stores the stride outcome's fields in
// the spare meta slots of the VTAGE outcome.
func (h *VTAGE2dStride) Predict(pc uint64, uopIdx int, hist *branch.History, specLast uint64, hasSpecLast bool) Outcome {
	vo := h.V.Predict(pc, uopIdx, hist, specLast, hasSpecLast)
	so := h.S.Predict(pc, uopIdx, hist, specLast, hasSpecLast)
	var out Outcome
	// Arbitration: prefer VTAGE when confident (context-based predictions
	// are strictly more precise); fall back to stride; never predict when
	// both confident and disagreeing.
	switch {
	case vo.Confident && so.Confident && vo.Value != so.Value:
		out.Predicted = true
		out.Confident = false
		out.Value = vo.Value
	case vo.Confident:
		out = vo
		out.Predicted = true
	case so.Confident:
		out.Predicted = true
		out.Confident = true
		out.Value = so.Value
	default:
		out.Predicted = true
		out.Confident = false
		out.Value = vo.Value
	}
	// Stash both component metas for update: VTAGE meta in dedicated
	// fields, stride meta in the spare slots.
	out.provider = vo.provider
	out.baseIdx = vo.baseIdx
	out.indices = vo.indices
	out.tags = vo.tags
	out.altPred = vo.altPred
	out.altValue = vo.altValue
	out.indices[7] = so.baseIdx    // stride entry index
	out.tags[7] = uint32(vo.Value) // low bits; full VTAGE value below
	out.lastUsed = so.lastUsed
	out.stride = so.stride
	out.hasLast = true
	// Keep full component predictions for correctness checks at update.
	out.tags[6] = uint32(vo.Value >> 32)
	out.aux2 = vo.Value
	out.aux3 = so.Value
	return out
}

// Update implements Predictor: both components are trained for every
// instruction, which is exactly the storage inefficiency the paper calls
// out.
func (h *VTAGE2dStride) Update(o *Outcome, actual uint64) {
	vo := Outcome{
		Predicted: true,
		Value:     o.aux2,
		provider:  o.provider,
		baseIdx:   o.baseIdx,
		indices:   o.indices,
		tags:      o.tags,
		altPred:   o.altPred,
		altValue:  o.altValue,
	}
	h.V.Update(&vo, actual)
	so := Outcome{
		Predicted: true,
		Value:     o.aux3,
		baseIdx:   o.indices[7],
		lastUsed:  o.lastUsed,
		stride:    o.stride,
	}
	h.S.Update(&so, actual)
}

// StorageBits implements Predictor.
func (h *VTAGE2dStride) StorageBits() int {
	return h.V.StorageBits() + h.S.StorageBits()
}
