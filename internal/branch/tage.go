package branch

import (
	"math"

	"bebop/internal/util"
)

// TAGE is a TAgged GEometric history length conditional branch predictor
// (Seznec & Michaud, 2006). The configuration mirrors Table I of the paper:
// one bimodal base table plus 12 partially tagged components whose history
// lengths grow geometrically, roughly 15K entries and ~32KB of storage.
//
// The tagged components are stored struct-of-arrays: the lookup loop reads
// one tag per component, and keeping tags, counters and usefulness bits in
// separate dense slices keeps those reads on as few cache lines as the
// entry count allows.
type TAGE struct {
	cfg  TAGEConfig
	rng  *util.RNG
	base []int8 // bimodal 2-bit counters

	comps []tageComp

	// idxBits is log2(CompEntries), shared by every component: the path
	// fold in the index hash depends only on it, so lookups compute that
	// fold once.
	idxBits int

	// useAltOnNA is the "use alternate prediction on newly allocated entry"
	// counter from the TAGE paper.
	useAltOnNA int8

	// tick drives the periodic usefulness reset.
	tick int
}

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	BaseEntries   int // bimodal table entries (power of two)
	CompEntries   int // entries per tagged component (power of two)
	NumComps      int // number of tagged components
	MinHist       int // history length of the first tagged component
	MaxHist       int // history length of the last tagged component
	TagBits       int // tag width of the first component (+1 every 2 comps)
	CtrBits       int // signed prediction counter width
	UsefulResetAt int // lookups between usefulness-reset sweeps
	Seed          uint64
}

// DefaultTAGEConfig is the Table I branch predictor: 1+12 components,
// ~15K entries, ≈32KB.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseEntries:   8192,
		CompEntries:   512,
		NumComps:      12,
		MinHist:       4,
		MaxHist:       256,
		TagBits:       9,
		CtrBits:       3,
		UsefulResetAt: 1 << 18,
		Seed:          0xB5,
	}
}

// HistoryLengths returns the geometric per-component history lengths
// MinHist..MaxHist, computed once at configuration time and capped at
// MaxHistoryBits. Component i uses length ~MinHist·r^i with
// r = (MaxHist/MinHist)^(1/(NumComps-1)), rounded to nearest.
func (cfg TAGEConfig) HistoryLengths() []int {
	lengths := make([]int, cfg.NumComps)
	ratio := 1.0
	if cfg.NumComps > 1 {
		ratio = math.Pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1/float64(cfg.NumComps-1))
	}
	h := float64(cfg.MinHist)
	for i := range lengths {
		hl := int(h + 0.5)
		if hl > MaxHistoryBits {
			hl = MaxHistoryBits
		}
		lengths[i] = hl
		h *= ratio
	}
	return lengths
}

// tageComp is one tagged component, struct-of-arrays: ctr[i], tag[i] and
// useful[i] describe entry i.
type tageComp struct {
	ctr     []int8 // signed, centered on 0 (taken when >= 0)
	tag     []uint16
	useful  []uint8
	mask    uint64 // CompEntries-1 (power of two)
	histLen int
	tagBits int
	idxBits int
}

// NewTAGE builds a predictor from cfg.
func NewTAGE(cfg TAGEConfig) *TAGE {
	if !util.IsPowerOfTwo(cfg.BaseEntries) || !util.IsPowerOfTwo(cfg.CompEntries) {
		panic("branch: TAGE table sizes must be powers of two")
	}
	t := &TAGE{
		cfg:     cfg,
		rng:     util.NewRNG(cfg.Seed),
		base:    make([]int8, cfg.BaseEntries),
		idxBits: util.Log2(cfg.CompEntries),
	}
	for i, hl := range cfg.HistoryLengths() {
		t.comps = append(t.comps, tageComp{
			ctr:     make([]int8, cfg.CompEntries),
			tag:     make([]uint16, cfg.CompEntries),
			useful:  make([]uint8, cfg.CompEntries),
			mask:    uint64(cfg.CompEntries - 1),
			histLen: hl,
			tagBits: cfg.TagBits + i/2,
			idxBits: t.idxBits,
		})
	}
	return t
}

// Reset clears the predictor back to its freshly-built state, reusing the
// table allocations: counters, tags, usefulness bits and the RNG all
// return to their NewTAGE values, so a Reset predictor behaves identically
// to a new one.
func (t *TAGE) Reset() {
	for i := range t.base {
		t.base[i] = 0
	}
	for c := range t.comps {
		comp := &t.comps[c]
		for i := range comp.ctr {
			comp.ctr[i] = 0
			comp.tag[i] = 0
			comp.useful[i] = 0
		}
	}
	t.rng = util.NewRNG(t.cfg.Seed)
	t.useAltOnNA = 0
	t.tick = 0
}

// RegisterFolds declares every (histLen, width) fold this predictor
// performs with the history's incremental folded-register file, so
// lookups read O(1) registers instead of re-folding the history vector.
func (t *TAGE) RegisterFolds(h *History) {
	for i := range t.comps {
		c := &t.comps[i]
		h.RegisterFold(c.histLen, c.idxBits)
		h.RegisterFold(c.histLen, c.tagBits)
		h.RegisterFold(c.histLen, c.tagBits-1)
	}
}

// Prediction captures a TAGE lookup so the same provider/alternate state is
// available at update time.
type Prediction struct {
	Taken    bool
	provider int // component index, -1 = bimodal
	altTaken bool
	provIdx  int
	provNew  bool // provider entry looked newly allocated (weak & not useful)
	baseIdx  int
	indices  [16]int32
	tags     [16]uint16
}

// Predict returns the direction prediction for pc under history h.
//
// BeBoP's one-read-per-block discipline, applied to the simulator: the PC
// hash and the path fold are computed once and shared by all component
// index/tag derivations, and the per-component history folds are O(1)
// register reads once the pairs are registered.
func (t *TAGE) Predict(pc uint64, h *History) Prediction {
	var p Prediction
	p.provider = -1
	pcHash := util.Mix64(pc >> 1)
	p.baseIdx = int(pcHash & uint64(len(t.base)-1))
	baseTaken := t.base[p.baseIdx] >= 2
	p.Taken = baseTaken
	p.altTaken = baseTaken

	pathFold := util.FoldBits(h.Path(), 16, t.idxBits)
	for i := range t.comps {
		c := &t.comps[i]
		folded := h.Fold(c.histLen, c.idxBits)
		p.indices[i] = int32((pcHash ^ folded ^ pathFold<<1) & c.mask)
		f1 := h.Fold(c.histLen, c.tagBits)
		f2 := h.Fold(c.histLen, c.tagBits-1)
		p.tags[i] = uint16((pcHash ^ f1 ^ f2<<1) & ((uint64(1) << c.tagBits) - 1))
	}
	// Longest matching component provides; next longest is the alternate.
	alt := -1
	for i := len(t.comps) - 1; i >= 0; i-- {
		if t.comps[i].tag[p.indices[i]] == p.tags[i] {
			if p.provider == -1 {
				p.provider = i
				p.provIdx = int(p.indices[i])
			} else {
				alt = i
				break
			}
		}
	}
	if p.provider >= 0 {
		c := &t.comps[p.provider]
		provTaken := c.ctr[p.provIdx] >= 0
		if alt >= 0 {
			p.altTaken = t.comps[alt].ctr[p.indices[alt]] >= 0
		}
		p.provNew = (c.ctr[p.provIdx] == 0 || c.ctr[p.provIdx] == -1) && c.useful[p.provIdx] == 0
		if p.provNew && t.useAltOnNA >= 0 {
			p.Taken = p.altTaken
		} else {
			p.Taken = provTaken
		}
	}
	return p
}

// Update trains the predictor with the architectural outcome. It must be
// called with the same history the prediction used.
func (t *TAGE) Update(pc uint64, h *History, p *Prediction, taken bool) {
	// useAltOnNA bookkeeping.
	if p.provider >= 0 && p.provNew {
		provTaken := t.comps[p.provider].ctr[p.provIdx] >= 0
		if provTaken != p.altTaken {
			if p.altTaken == taken {
				if t.useAltOnNA < 7 {
					t.useAltOnNA++
				}
			} else if t.useAltOnNA > -8 {
				t.useAltOnNA--
			}
		}
	}

	// Update provider (or bimodal).
	if p.provider >= 0 {
		c := &t.comps[p.provider]
		ctr := c.ctr[p.provIdx]
		max := int8(1)<<(t.cfg.CtrBits-1) - 1
		min := -(int8(1) << (t.cfg.CtrBits - 1))
		if taken && ctr < max {
			ctr++
		} else if !taken && ctr > min {
			ctr--
		}
		c.ctr[p.provIdx] = ctr
		provTaken := ctr >= 0
		if provTaken == taken && p.altTaken != taken && c.useful[p.provIdx] < 3 {
			c.useful[p.provIdx]++
		} else if provTaken != taken && p.altTaken == taken && c.useful[p.provIdx] > 0 {
			c.useful[p.provIdx]--
		}
	} else {
		b := &t.base[p.baseIdx]
		if taken && *b < 3 {
			*b++
		} else if !taken && *b > 0 {
			*b--
		}
	}

	// Allocate on misprediction in a longer component.
	if p.Taken != taken && p.provider < len(t.comps)-1 {
		t.allocate(p, taken)
	}

	// Periodic graceful usefulness reset.
	t.tick++
	if t.tick >= t.cfg.UsefulResetAt {
		t.tick = 0
		for i := range t.comps {
			u := t.comps[i].useful
			for j := range u {
				u[j] >>= 1
			}
		}
	}
}

func (t *TAGE) allocate(p *Prediction, taken bool) {
	start := p.provider + 1
	// Count allocation candidates (useful == 0).
	free := 0
	for i := start; i < len(t.comps); i++ {
		if t.comps[i].useful[p.indices[i]] == 0 {
			free++
		}
	}
	if free == 0 {
		for i := start; i < len(t.comps); i++ {
			if u := &t.comps[i].useful[p.indices[i]]; *u > 0 {
				*u--
			}
		}
		return
	}
	// Pick a random free candidate, biased toward shorter histories.
	pick := t.rng.Intn(free)
	if free > 1 && t.rng.Bool(0.5) {
		pick = 0
	}
	for i := start; i < len(t.comps); i++ {
		c := &t.comps[i]
		idx := p.indices[i]
		if c.useful[idx] != 0 {
			continue
		}
		if pick == 0 {
			c.tag[idx] = p.tags[i]
			if taken {
				c.ctr[idx] = 0
			} else {
				c.ctr[idx] = -1
			}
			c.useful[idx] = 0
			return
		}
		pick--
	}
}

// StorageBits returns the predictor's storage budget in bits.
func (t *TAGE) StorageBits() int {
	bits := len(t.base) * 2
	for i := range t.comps {
		c := &t.comps[i]
		bits += len(c.ctr) * (t.cfg.CtrBits + c.tagBits + 2)
	}
	return bits
}
