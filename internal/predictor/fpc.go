package predictor

import "bebop/internal/util"

// FPC implements Forward Probabilistic Counters (Perais & Seznec, HPCA
// 2014): an n-bit confidence counter that is reset on a wrong prediction
// and incremented only with a configured probability on a correct one.
// Low forward probabilities make saturation require a long run of correct
// predictions, pushing the accuracy of *used* predictions above 99.5%
// while storing only 3 bits per entry.
type FPC struct {
	// denoms[i] is the denominator of the increment probability when the
	// counter holds value i: 1 means always increment, 16 means 1/16.
	denoms []int
	max    uint8
	rng    *util.RNG
}

// DefaultFPCProbs is the probability vector used in the paper
// (Section V-B): v = {1, 1/16, 1/16, 1/16, 1/16, 1/32, 1/32}.
func DefaultFPCProbs() []int { return []int{1, 16, 16, 16, 16, 32, 32} }

// NewFPC builds a confidence policy for a counter saturating at
// len(denoms) (a 3-bit counter for the default 7-entry vector).
func NewFPC(denoms []int, seed uint64) *FPC {
	if len(denoms) == 0 {
		panic("predictor: FPC needs at least one probability")
	}
	return &FPC{denoms: denoms, max: uint8(len(denoms)), rng: util.NewRNG(seed)}
}

// Saturated reports whether counter value c allows the prediction to be
// used.
func (f *FPC) Saturated(c uint8) bool { return c >= f.max }

// Correct applies the probabilistic increment for a correct prediction and
// returns the new counter value.
func (f *FPC) Correct(c uint8) uint8 {
	if c >= f.max {
		return c
	}
	if f.rng.OneIn(f.denoms[c]) {
		return c + 1
	}
	return c
}

// Wrong resets the counter.
func (f *FPC) Wrong(uint8) uint8 { return 0 }

// Bits returns the storage cost per counter.
func (f *FPC) Bits() int {
	b := 0
	for v := int(f.max); v > 0; v >>= 1 {
		b++
	}
	return b
}
