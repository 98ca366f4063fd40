package branch

// Incremental folded-history registers.
//
// TAGE-style predictors never fold the full global history at lookup time
// in hardware: each component keeps a circular-shift register (CSR) holding
// the folded image of its history window, updated in O(1) when a branch
// outcome shifts in (Seznec's TAGE, and the gem5 VTAGE infrastructure).
// This file is the simulator-side equivalent: consumers register their
// (histLen, width) fold pairs once, History.Push updates every register
// with a rotate plus a handful of single-bit corrections, and
// History.Fold becomes a register read.
//
// The registers reproduce History.foldSlow bit for bit. foldSlow folds
// each 64-bit history word separately and rotates the accumulator left by
// one between words, so for a window of n bits spanning k = ceil(n/64)
// words the result is
//
//	R = XOR_{w=0..k-1} rotl(F_w, k-w)
//
// where F_w is the width-bit XOR-fold of word w's slice of the window.
// Shifting a new bit b into the history turns each window slice W into
// (W<<1 | carry) mod 2^take, and the classic CSR identity
//
//	fold(W') = rotl(fold(W), 1) XOR carry XOR leaving<<(take mod width)
//
// (carry = bit entering the slice, leaving = bit falling off its end)
// lifts through the per-word rotations: the whole register updates as one
// rotate-left plus XORs of the inserted bit and the bits crossing word or
// window boundaries, all of whose positions are fixed at registration
// time. Because word-boundary carries are exactly the bits leaving the
// previous word, each boundary contributes a precomputed two-bit XOR mask
// gated on that bit of the pre-push history.
//
// Register values are a pure function of the direction history, so a
// HistorySnapshot has none by construction: Restore (mispredict recovery
// and checkpoint restore alike) and Reset recompute them from the
// restored bit vector, which keeps snapshots small and makes the
// invariant value == foldSlow(n, width) impossible to desynchronize.

// maxFoldWidth is the widest registrable fold. Index and tag widths are
// at most ~20 bits in any configuration; 63 keeps every shift in push()
// well-defined.
const maxFoldWidth = 63

// foldedReg is one incrementally maintained folded-history register.
type foldedReg struct {
	value uint64
	mask  uint64 // (1<<width)-1

	// wmask[w] is XORed into the register when bit 63 of pre-push word w
	// is set (the bit leaves word w's slice and enters word w+1's).
	wmask [MaxHistoryBits/64 - 1]uint64

	n, width   uint16
	k          uint8 // ceil(n/64): words the window spans
	newShift   uint8 // position of the inserted branch bit: k mod width
	lastBitPos uint8 // position within word k-1 of the window's last bit
	lastShift  uint8 // position where that leaving bit is XORed out
}

// makeFoldedReg precomputes the push-time constants for an (n, width)
// pair. Callers guarantee 1 <= n <= MaxHistoryBits and
// 1 <= width <= maxFoldWidth.
func makeFoldedReg(n, width int) foldedReg {
	k := (n + 63) / 64
	take := n - 64*(k-1) // bits of the last word in the window
	r := foldedReg{
		mask:       (uint64(1) << width) - 1,
		n:          uint16(n),
		width:      uint16(width),
		k:          uint8(k),
		newShift:   uint8(k % width),
		lastBitPos: uint8(take - 1),
		lastShift:  uint8((take + 1) % width),
	}
	// Word boundaries: bit 63 of word w contributes twice, as the bit
	// leaving word w's (full) slice and as the carry entering word w+1's.
	// Equal positions cancel through the XOR.
	for w := 0; w < k-1; w++ {
		out := uint((64 + k - w) % width)
		in := uint((k - w - 1) % width)
		r.wmask[w] = (uint64(1) << out) ^ (uint64(1) << in)
	}
	return r
}

// push advances the register by one history bit. dir is the PRE-push
// direction vector; b is the inserted outcome bit (0 or 1).
func (r *foldedReg) push(dir *[MaxHistoryBits / 64]uint64, b uint64) {
	width := uint(r.width)
	v := ((r.value << 1) | (r.value >> (width - 1))) & r.mask
	v ^= b << r.newShift
	for w := 0; w < int(r.k)-1; w++ {
		v ^= r.wmask[w] * (dir[w] >> 63)
	}
	v ^= ((dir[r.k-1] >> r.lastBitPos) & 1) << r.lastShift
	r.value = v & r.mask
}

// foldedSet is a History's register file. key[n][width] holds id+1 of the
// register for that pair (0 = unregistered), so the zero value needs no
// initialization and Fold's lookup is two array reads.
type foldedSet struct {
	regs []foldedReg
	key  [MaxHistoryBits + 1][maxFoldWidth + 1]int16
}

// recompute rebuilds every register value from the direction vector.
func (fs *foldedSet) recompute(h *History) {
	for i := range fs.regs {
		r := &fs.regs[i]
		r.value = h.foldSlow(int(r.n), int(r.width))
	}
}

// zero clears every register value (history reset).
func (fs *foldedSet) zero() {
	for i := range fs.regs {
		fs.regs[i].value = 0
	}
}

// clear drops every registration, reusing the regs backing array (the
// key entries of registered pairs are un-marked individually, so the
// 32KB key table is not re-zeroed wholesale).
func (fs *foldedSet) clear() {
	for i := range fs.regs {
		r := &fs.regs[i]
		fs.key[r.n][r.width] = 0
	}
	fs.regs = fs.regs[:0]
}

// EnableFolds attaches an (empty) incremental folded-register file to the
// history. Consumers then declare their fold pairs with RegisterFold.
// A History without folds enabled — the zero value — computes every Fold
// from scratch, which is the reference behavior the registers must match.
func (h *History) EnableFolds() {
	if h.folds == nil {
		h.folds = &foldedSet{}
	}
}

// DisableFolds detaches the register file; every Fold goes back to the
// from-scratch reference path. Used by the differential tests to pin the
// incremental path against the original implementation.
func (h *History) DisableFolds() { h.folds = nil }

// ClearFolds drops every registered fold pair while keeping the register
// file (and its allocations) attached. Processor.Reset calls this before
// the new configuration's consumers re-register, so a pooled processor
// recycled across configurations does not accumulate — and pay Push cost
// for — registers belonging to predictors it no longer runs.
func (h *History) ClearFolds() {
	if h.folds != nil {
		h.folds.clear()
	}
}

// RegisterFold declares that some consumer folds the most recent n bits
// of history to width bits, creating (or reusing) the incremental
// register for the pair. Registration is idempotent; pairs outside the
// supported range are ignored and served by the reference path. The new
// register is initialized from the current history contents.
func (h *History) RegisterFold(n, width int) {
	fs := h.folds
	if fs == nil || n <= 0 || n > MaxHistoryBits || width <= 0 || width > maxFoldWidth {
		return
	}
	if fs.key[n][width] != 0 {
		return
	}
	r := makeFoldedReg(n, width)
	r.value = h.foldSlow(n, width)
	fs.regs = append(fs.regs, r)
	fs.key[n][width] = int16(len(fs.regs))
}

// FoldRegisters returns the number of registered fold pairs (stats,
// tests).
func (h *History) FoldRegisters() int {
	if h.folds == nil {
		return 0
	}
	return len(h.folds.regs)
}
