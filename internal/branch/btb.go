package branch

import "bebop/internal/util"

// BTB is a set-associative branch target buffer (Table I: 2-way, 8K-entry).
// Its entries are stored struct-of-arrays, way-major within a set: entry
// i is valid[i], tag[i], target[i] and lastUse[i], so the checkpoint
// state is four slice appends.
type BTB struct {
	ways    int
	sets    int
	valid   []bool
	tag     []uint64
	target  []uint64
	lastUse []uint64
	clock   uint64
}

// NewBTB builds a BTB with the given total entry count and associativity.
func NewBTB(totalEntries, ways int) *BTB {
	sets := totalEntries / ways
	if !util.IsPowerOfTwo(sets) {
		panic("branch: BTB set count must be a power of two")
	}
	return &BTB{
		ways:    ways,
		sets:    sets,
		valid:   make([]bool, totalEntries),
		tag:     make([]uint64, totalEntries),
		target:  make([]uint64, totalEntries),
		lastUse: make([]uint64, totalEntries),
	}
}

// Reset clears the BTB in place, reusing the entry arrays.
func (b *BTB) Reset() {
	clear(b.valid)
	clear(b.tag)
	clear(b.target)
	clear(b.lastUse)
	b.clock = 0
}

func (b *BTB) set(pc uint64) (int, uint64) {
	idx := int(util.Mix64(pc) & uint64(b.sets-1))
	tag := pc
	return idx, tag
}

// Lookup returns the predicted target for pc, if any.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.clock++
	set, tag := b.set(pc)
	base := set * b.ways
	for i := base; i < base+b.ways; i++ {
		if b.valid[i] && b.tag[i] == tag {
			b.lastUse[i] = b.clock
			return b.target[i], true
		}
	}
	return 0, false
}

// Insert records pc -> target, evicting the LRU way on conflict.
func (b *BTB) Insert(pc, target uint64) {
	b.clock++
	set, tag := b.set(pc)
	base := set * b.ways
	victim := base
	for i := base; i < base+b.ways; i++ {
		if b.valid[i] && b.tag[i] == tag {
			b.target[i] = target
			b.lastUse[i] = b.clock
			return
		}
		if !b.valid[i] {
			victim = i
			break
		}
		if b.lastUse[i] < b.lastUse[victim] {
			victim = i
		}
	}
	b.valid[victim], b.tag[victim], b.target[victim], b.lastUse[victim] = true, tag, target, b.clock
}

// RAS is a return address stack (Table I: 32 entries) with wrap-around
// semantics: overflow overwrites the oldest entry, underflow returns junk,
// exactly like hardware.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS builds a RAS with n entries.
func NewRAS(n int) *RAS {
	return &RAS{stack: make([]uint64, n)}
}

// Reset empties the stack, reusing its storage.
func (r *RAS) Reset() {
	r.top, r.depth = 0, 0
}

// Push records a return address (on a call).
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the target of a return. ok is false when the stack is empty
// (the prediction is then garbage, as in hardware).
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	addr = r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return addr, true
}
