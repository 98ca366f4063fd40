// Package branch implements the branch prediction substrate of the
// simulated core: a TAGE conditional predictor (Table I: 1+12 components,
// ~15K entries), a set-associative BTB, a return address stack, and the
// global branch / path history registers.
//
// The history registers are shared with the value predictor: VTAGE and
// D-VTAGE index their tagged components with a hash of the PC, the global
// branch history and the path history, exactly as the TAGE branch predictor
// does (Perais & Seznec, HPCA 2014; Seznec & Michaud 2006).
package branch

import "bebop/internal/util"

// MaxHistoryBits is the longest global history any consumer may fold.
// D-VTAGE's longest component uses 64 bits; TAGE uses up to 256.
const MaxHistoryBits = 256

// History holds the global branch direction history and the path history.
// Direction history is a bit vector (most recent outcome in bit 0); path
// history collects low-order target bits of taken branches.
type History struct {
	// dir packs direction history, 64 bits per word, most recent in
	// dir[0] bit 0.
	dir [MaxHistoryBits / 64]uint64
	// path is the path history register (low PC bits of taken targets).
	path uint64
	// folds, when non-nil, is the incremental folded-register file (see
	// fold.go).
	//bebop:nosnap derived from dir: Restore and Reset recompute the registers
	folds *foldedSet
}

// Push records a branch outcome and, when taken, the branch target into the
// path history.
func (h *History) Push(taken bool, target uint64) {
	carryIn := uint64(0)
	if taken {
		carryIn = 1
	}
	if fs := h.folds; fs != nil {
		// Registers read the pre-push vector; update them first.
		for i := range fs.regs {
			fs.regs[i].push(&h.dir, carryIn)
		}
	}
	for i := range h.dir {
		carryOut := h.dir[i] >> 63
		h.dir[i] = h.dir[i]<<1 | carryIn
		carryIn = carryOut
	}
	if taken {
		h.path = h.path<<3 | (target>>2)&0x7
	}
}

// Fold compresses the most recent n bits of direction history into width
// bits by XOR folding. With folds enabled, the first Fold of an
// (n, width) pair in range creates its incrementally maintained register
// and every later one reads it in O(1); without, or out of range, the
// history is folded from scratch.
func (h *History) Fold(n, width int) uint64 {
	if fs := h.folds; fs != nil &&
		uint(n-1) < MaxHistoryBits && uint(width-1) < maxFoldWidth {
		if id := fs.key[n][width]; id != 0 {
			return fs.regs[id-1].value
		}
		return h.addFold(n, width)
	}
	return h.foldSlow(n, width)
}

// foldSlow is the reference fold: it walks the history words at lookup
// time. It is the behavior every incremental register must reproduce; it
// initializes and recomputes the registers, and it serves every Fold of
// a history without them.
func (h *History) foldSlow(n, width int) uint64 {
	if n <= 0 || width <= 0 {
		return 0
	}
	var folded uint64
	rem := n
	word := 0
	for rem > 0 && word < len(h.dir) {
		take := rem
		if take > 64 {
			take = 64
		}
		folded ^= util.FoldBits(h.dir[word], take, width)
		// Rotate the per-word fold so successive words land on different
		// bits; otherwise identical words cancel.
		folded = ((folded << 1) | (folded >> (width - 1))) & ((uint64(1) << width) - 1)
		rem -= take
		word++
	}
	return folded & ((uint64(1) << width) - 1)
}

// Path returns the path history register.
func (h *History) Path() uint64 { return h.path }

// Bits returns the n most recent direction bits (n <= 64), most recent in
// bit 0. No simulator code calls it: it is a probe kept for the tests,
// which read the raw direction bits through it.
func (h *History) Bits(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n > 64 {
		n = 64
	}
	if n == 64 {
		return h.dir[0]
	}
	return h.dir[0] & ((uint64(1) << n) - 1)
}

// Reset clears the history to its zero state, keeping the fold
// registers (their values reset with the bits).
func (h *History) Reset() {
	h.dir = [MaxHistoryBits / 64]uint64{}
	h.path = 0
	if h.folds != nil {
		h.folds.zero()
	}
}

// HistorySnapshot is the one saved form of a History, for mispredict
// recovery and checkpoints alike: the raw direction vector and the path
// register. It has no folded registers, which are a pure function of
// the direction bits and are recomputed on restore.
type HistorySnapshot struct {
	Dir  [MaxHistoryBits / 64]uint64
	Path uint64
}

// Snapshot captures the history.
func (h *History) Snapshot() HistorySnapshot {
	return HistorySnapshot{Dir: h.dir, Path: h.path}
}

// Restore overwrites the history from a snapshot and recomputes the
// folded registers from the restored bit vector.
func (h *History) Restore(s HistorySnapshot) {
	h.dir = s.Dir
	h.path = s.Path
	if h.folds != nil {
		h.folds.recompute(h)
	}
}
