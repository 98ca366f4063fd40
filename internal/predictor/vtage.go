package predictor

import (
	"bebop/internal/branch"
	"bebop/internal/util"
)

// VTAGEConfig sizes a VTAGE predictor (Perais & Seznec, HPCA 2014): a
// tagless last-value base table and one partially tagged component per
// history length, indexed with a hash of the PC, the global branch
// history and the path history, with geometrically growing history
// lengths.
type VTAGEConfig struct {
	BaseEntries int
	CompEntries int
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
		HistLens:    []int{2, 4, 8, 16, 32, 64},
		TagBitsLo:   13,
		FPCProbs:    DefaultFPCProbs(),
		Seed:        0x57A6E,
	}
}

// VTAGE is the per-instruction VTAGE value predictor: a direct application
// of the TAGE branch predictor to value prediction. The base component is a
// tagless last value predictor; each tagged component is a gshare-like
// value table using a different global history length. The tagged
// components are a branch.Tagged core, beside which VTAGE keeps its
// payload: a value and a confidence counter per tagged entry.
type VTAGE struct {
	base   []lvEntry
	tagged *branch.Tagged
	values []uint64 // per tagged entry
	conf   []uint8  // per tagged entry
	fpc    *FPC
}

// tagWidths returns n tag widths growing by one from lo, the VTAGE and
// D-VTAGE component tags.
func tagWidths(lo, n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = lo + i
	}
	return w
}

// NewVTAGE builds a VTAGE predictor.
func NewVTAGE(cfg VTAGEConfig) *VTAGE {
	if !util.IsPowerOfTwo(cfg.BaseEntries) {
		panic("predictor: VTAGE base entries must be a power of two")
	}
	tagged := branch.NewTagged(cfg.CompEntries, cfg.HistLens, tagWidths(cfg.TagBitsLo, len(cfg.HistLens)), 1, 1<<18, cfg.Seed^0xC0FFEE)
	return &VTAGE{
		base:   make([]lvEntry, cfg.BaseEntries),
		tagged: tagged,
		values: make([]uint64, tagged.Entries()),
		conf:   make([]uint8, tagged.Entries()),
		fpc:    NewFPC(cfg.FPCProbs, cfg.Seed),
	}
}

func (v *VTAGE) Name() string { return "VTAGE" }

// Predict implements Predictor. VTAGE ignores the speculative last value:
// its predictions never depend on in-flight results, one of its key
// implementation advantages (Section III-B). The instruction key is
// hashed once for indexes and once for tags, and both hashes serve
// every component.
func (v *VTAGE) Predict(pc uint64, uopIdx int, hist *branch.History, _ uint64, _ bool) Outcome {
	key := instKey(pc, uopIdx)
	var o Outcome
	idxHash := util.Mix64(key)
	o.baseIdx = int32(idxHash & uint64(len(v.base)-1))
	prov, alt := v.tagged.Lookup(idxHash, util.Mix64(key^0x9E37), hist, o.indices[:], o.tags[:])
	o.provider = int8(prov)
	o.Predicted = true
	if prov < 0 {
		be := &v.base[o.baseIdx]
		o.Value = be.value
		o.Confident = v.fpc.Saturated(be.conf)
		return o
	}
	// The longest-history hit provides; the next longest, or else the
	// base, is the alternate for the usefulness computation.
	e := o.indices[prov]
	o.Value = v.values[e]
	o.Confident = v.fpc.Saturated(v.conf[e])
	o.altPred = true
	if alt >= 0 {
		o.altValue = v.values[o.indices[alt]]
	} else {
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
		e := o.indices[o.provider]
		if correct {
			v.conf[e] = v.fpc.Correct(v.conf[e])
			// Useful iff correct and the alternate prediction differs.
			if o.altPred && o.altValue != actual {
				v.tagged.TrainUseful(e, true)
			}
		} else {
			v.conf[e] = v.fpc.Wrong(v.conf[e])
			v.values[e] = actual
			if o.altPred && o.altValue == actual {
				v.tagged.TrainUseful(e, false)
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
	if !correct {
		// With every candidate useful, allocate nothing (Section III-A).
		if e := v.tagged.Allocate(int(o.provider), o.indices[:], o.tags[:]); e >= 0 {
			v.values[e] = actual
			v.conf[e] = 0
		}
	}
	v.tagged.Age()
}

// StorageBits implements Predictor.
func (v *VTAGE) StorageBits() int {
	return len(v.base)*(64+v.fpc.Bits()) + len(v.values)*(64+v.fpc.Bits()) + v.tagged.StorageBits()
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
