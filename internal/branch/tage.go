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
// The tagged components are a Tagged core; TAGE keeps its payload, one
// signed direction counter per tagged entry, beside it.
type TAGE struct {
	cfg    TAGEConfig
	base   []int8 // bimodal 2-bit counters
	tagged *Tagged
	ctr    []int8 // per tagged entry: signed, centered on 0 (taken when >= 0)

	// useAltOnNA is the "use alternate prediction on newly allocated entry"
	// counter from the TAGE paper.
	useAltOnNA int8
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

// NewTAGE builds a predictor from cfg.
func NewTAGE(cfg TAGEConfig) *TAGE {
	if !util.IsPowerOfTwo(cfg.BaseEntries) {
		panic("branch: TAGE base entries must be a power of two")
	}
	lengths := cfg.HistoryLengths()
	tagBits := make([]int, len(lengths))
	for i := range tagBits {
		tagBits[i] = cfg.TagBits + i/2
	}
	tagged := NewTagged(cfg.CompEntries, lengths, tagBits, 2, cfg.UsefulResetAt, cfg.Seed)
	return &TAGE{
		cfg:    cfg,
		base:   make([]int8, cfg.BaseEntries),
		tagged: tagged,
		ctr:    make([]int8, tagged.Entries()),
	}
}

// Reset clears the predictor back to its freshly-built state, reusing the
// table allocations: counters, tags, usefulness bits and the RNG all
// return to their NewTAGE values, so a Reset predictor behaves identically
// to a new one.
func (t *TAGE) Reset() {
	clear(t.base)
	clear(t.ctr)
	t.tagged.Reset()
	t.useAltOnNA = 0
}

// Prediction captures a TAGE lookup so the same provider/alternate state is
// available at update time.
type Prediction struct {
	Taken    bool
	provider int // component index, -1 = bimodal
	altTaken bool
	provNew  bool // provider entry looked newly allocated (weak & not useful)
	baseIdx  int
	indices  [16]int32
	tags     [16]uint32
}

// Predict returns the direction prediction for pc under history h.
//
// BeBoP's one-read-per-block discipline, applied to the simulator: the PC
// hash is computed once and serves as both the index and the tag hash of
// every component.
func (t *TAGE) Predict(pc uint64, h *History) Prediction {
	var p Prediction
	pcHash := util.Mix64(pc >> 1)
	p.baseIdx = int(pcHash & uint64(len(t.base)-1))
	p.Taken = t.base[p.baseIdx] >= 2
	p.altTaken = p.Taken
	var alt int
	p.provider, alt = t.tagged.Lookup(pcHash, pcHash, h, p.indices[:], p.tags[:])
	if p.provider >= 0 {
		e := p.indices[p.provider]
		ctr := t.ctr[e]
		if alt >= 0 {
			p.altTaken = t.ctr[p.indices[alt]] >= 0
		}
		p.provNew = (ctr == 0 || ctr == -1) && t.tagged.Useful(e) == 0
		if p.provNew && t.useAltOnNA >= 0 {
			p.Taken = p.altTaken
		} else {
			p.Taken = ctr >= 0
		}
	}
	return p
}

// Update trains the predictor with the architectural outcome of the
// branch p predicted. p carries every index and tag the prediction
// read, so training needs neither the PC nor the history.
func (t *TAGE) Update(p *Prediction, taken bool) {
	if p.provider >= 0 {
		e := p.indices[p.provider]
		// useAltOnNA bookkeeping.
		if p.provNew && (t.ctr[e] >= 0) != p.altTaken {
			if p.altTaken == taken {
				if t.useAltOnNA < 7 {
					t.useAltOnNA++
				}
			} else if t.useAltOnNA > -8 {
				t.useAltOnNA--
			}
		}
		// Update the provider.
		ctr := t.ctr[e]
		max := int8(1)<<(t.cfg.CtrBits-1) - 1
		min := -(int8(1) << (t.cfg.CtrBits - 1))
		if taken && ctr < max {
			ctr++
		} else if !taken && ctr > min {
			ctr--
		}
		t.ctr[e] = ctr
		provTaken := ctr >= 0
		if provTaken == taken && p.altTaken != taken {
			t.tagged.TrainUseful(e, true)
		} else if provTaken != taken && p.altTaken == taken {
			t.tagged.TrainUseful(e, false)
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
	if p.Taken != taken {
		if e := t.tagged.Allocate(p.provider, p.indices[:], p.tags[:]); e >= 0 {
			if taken {
				t.ctr[e] = 0
			} else {
				t.ctr[e] = -1
			}
		}
	}
	t.tagged.Age()
}

// StorageBits returns the predictor's storage budget in bits.
func (t *TAGE) StorageBits() int {
	return len(t.base)*2 + len(t.ctr)*t.cfg.CtrBits + t.tagged.StorageBits()
}
