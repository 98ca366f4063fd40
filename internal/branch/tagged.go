package branch

import (
	"fmt"

	"bebop/internal/util"
)

// Tagged is the tagged half shared by the TAGE branch predictor and the
// VTAGE and D-VTAGE value predictors: VTAGE is TAGE with values in place
// of direction counters (Perais & Seznec, HPCA 2014), and D-VTAGE is
// VTAGE with strides in its entries. Each component is a table of
// partially tagged entries indexed with a hash of the key, of the
// global branch history folded to the component's history length and
// of the path history; the longest matching component provides.
//
// Tagged owns what the three share: every component's tag and
// usefulness lanes, the allocation RNG and the usefulness aging. The
// predictor that embeds it owns the payload (direction counters,
// values, strides, confidence) in lanes of Entries() elements and its
// training rules. An entry is named by one flat number, component
// c's entry i being c<<log2(entries)|i, so the same number indexes the
// core's lanes and the payload's.
type Tagged struct {
	comps  []taggedComp
	tag    []uint32 // per entry
	useful []uint8  // per entry: a saturating counter

	mask       uint64 // entries per component - 1
	idxBits    int    // log2(entries per component)
	usefulBits int
	resetAt    int
	seed       uint64
	rng        *util.RNG
	updates    int // updates since the last aging
}

// taggedComp is one component's geometry.
type taggedComp struct {
	histLen int
	tagBits int
}

// NewTagged builds len(histLens) components of entries entries each.
// Component c folds histLens[c] bits of history and compares
// tagBits[c]-bit tags (at most 32). Usefulness counters are usefulBits
// wide and halve every resetAt updates; allocation draws from an RNG
// seeded with seed.
func NewTagged(entries int, histLens, tagBits []int, usefulBits, resetAt int, seed uint64) *Tagged {
	if !util.IsPowerOfTwo(entries) {
		panic("branch: tagged component entries must be a power of two")
	}
	t := &Tagged{
		tag:        make([]uint32, entries*len(histLens)),
		useful:     make([]uint8, entries*len(histLens)),
		mask:       uint64(entries - 1),
		idxBits:    util.Log2(entries),
		usefulBits: usefulBits,
		resetAt:    resetAt,
		seed:       seed,
		rng:        util.NewRNG(seed),
	}
	for c, hl := range histLens {
		if tagBits[c] < 1 || tagBits[c] > 32 {
			panic(fmt.Sprintf("branch: tag width %d outside 1..32", tagBits[c]))
		}
		t.comps = append(t.comps, taggedComp{histLen: hl, tagBits: tagBits[c]})
	}
	return t
}

// Reset returns every tag, usefulness counter, the update count and the
// RNG to their NewTagged values, reusing the lanes.
func (t *Tagged) Reset() {
	clear(t.tag)
	clear(t.useful)
	t.rng = util.NewRNG(t.seed)
	t.updates = 0
}

// Entries returns the number of entries across all components: the
// length of every payload lane.
func (t *Tagged) Entries() int { return len(t.tag) }

// Lookup indexes and tags every component for a key's index and tag
// hashes under history h, writing component c's entry to entries[c]
// and its tag to tags[c], and returns the longest matching component
// (the provider) and the next longest (the alternate), -1 where none
// matches.
func (t *Tagged) Lookup(idxHash, tagHash uint64, h *History, entries []int32, tags []uint32) (provider, alt int) {
	entries, tags = entries[:len(t.comps)], tags[:len(t.comps)]
	pathFold := util.FoldBits(h.Path(), 16, t.idxBits)
	for c := range t.comps {
		tc := &t.comps[c]
		folded := h.Fold(tc.histLen, t.idxBits)
		entries[c] = int32(c<<t.idxBits) | int32((idxHash^folded^pathFold<<1)&t.mask)
		f1 := h.Fold(tc.histLen, tc.tagBits)
		f2 := h.Fold(tc.histLen, tc.tagBits-1)
		tags[c] = uint32((tagHash ^ f1 ^ f2<<1) & (uint64(1)<<tc.tagBits - 1))
	}
	provider, alt = -1, -1
	for c := len(t.comps) - 1; c >= 0; c-- {
		if t.tag[entries[c]] == tags[c] {
			if provider < 0 {
				provider = c
			} else {
				alt = c
				break
			}
		}
	}
	return provider, alt
}

// Useful returns entry e's usefulness counter.
func (t *Tagged) Useful(e int32) uint8 { return t.useful[e] }

// TrainUseful moves entry e's usefulness counter one step up or down,
// saturating at 0 and at its width's maximum.
func (t *Tagged) TrainUseful(e int32, up bool) {
	u := &t.useful[e]
	if up {
		if *u < t.usefulMax() {
			*u++
		}
	} else if *u > 0 {
		*u--
	}
}

func (t *Tagged) usefulMax() uint8 { return uint8(1)<<t.usefulBits - 1 }

// Allocate claims an entry for the key Lookup wrote to entries and tags
// in a component longer than provider, after a misprediction. The
// candidates are those of the longer components' entries whose
// usefulness is 0. With none, it decrements every longer component's
// counter and returns -1. Otherwise it picks a random candidate,
// preferring the shortest half the time, writes the key's tag and
// returns the entry; the caller fills the payload.
func (t *Tagged) Allocate(provider int, entries []int32, tags []uint32) int32 {
	start := provider + 1
	free := 0
	for c := start; c < len(t.comps); c++ {
		if t.useful[entries[c]] == 0 {
			free++
		}
	}
	if free == 0 {
		for c := start; c < len(t.comps); c++ {
			t.useful[entries[c]]--
		}
		return -1
	}
	pick := t.rng.Intn(free)
	if free > 1 && t.rng.Bool(0.5) {
		pick = 0
	}
	for c := start; c < len(t.comps); c++ {
		e := entries[c]
		if t.useful[e] != 0 {
			continue
		}
		if pick == 0 {
			t.tag[e] = tags[c]
			return e
		}
		pick--
	}
	return -1 // unreachable: pick < free
}

// Age counts one update; every resetAt-th halves every usefulness
// counter, so entries that stopped being useful become allocatable.
func (t *Tagged) Age() {
	t.updates++
	if t.updates >= t.resetAt {
		t.updates = 0
		for e := range t.useful {
			t.useful[e] >>= 1
		}
	}
}

// StorageBits returns the bits of the tags and usefulness counters.
func (t *Tagged) StorageBits() int {
	bits := 0
	for c := range t.comps {
		bits += int(t.mask+1) * (t.comps[c].tagBits + t.usefulBits)
	}
	return bits
}
