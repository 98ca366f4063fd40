// Package specwindow implements the block-based speculative window of
// Section IV: a small, chronologically ordered associative buffer holding
// the predicted values of in-flight prediction blocks. Stride-based
// predictors need the value of the *most recent* instance of a block —
// which may not have retired — as the last value to add strides to;
// without this window, tight loops whose bodies fit several times in the
// instruction window are unpredictable (Fig. 7(b)).
//
// The buffer is fully associative for reads (probed with a 15-bit partial
// block tag; the most recent matching entry, by sequence number, wins) but
// a simple circular buffer for writes: a new prediction block is pushed at
// the head without any tag match; if the head overlaps the tail, both
// advance. Partial tags are allowed to false-positive: value prediction is
// speculative by nature.
package specwindow

import "bebop/internal/util"

// MaxNPred mirrors predictor.MaxNPred without importing it.
const MaxNPred = 8

// Policy selects the recovery behaviour of the speculative window and
// FIFO update queue on a pipeline squash where the first instruction
// fetched after the flush belongs to the same block as the instruction
// that triggered it (Section IV-A).
type Policy uint8

// Recovery policies.
const (
	// PolicyIdeal tracks predictions at instruction rather than block
	// granularity: predictions for instructions older than the flush
	// survive, newer instructions are re-predicted. Idealistic.
	PolicyIdeal Policy = iota
	// PolicyRepred squashes the head blocks and re-predicts the refetched
	// block from scratch.
	PolicyRepred
	// PolicyDnRDnR (Do not Repredict, Do not Reuse) keeps the head blocks
	// for training but forbids refetched instructions from using their
	// predictions — if one prediction in the block was wrong, the
	// subsequent ones likely are too. This is the paper's choice.
	PolicyDnRDnR
	// PolicyDnRR (Do not Repredict, Reuse) keeps the head blocks and lets
	// refetched instructions reuse the stored predictions.
	PolicyDnRR
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyIdeal:
		return "Ideal"
	case PolicyRepred:
		return "Repred"
	case PolicyDnRDnR:
		return "DnRDnR"
	case PolicyDnRR:
		return "DnRR"
	}
	return "?"
}

// ParsePolicy converts a policy name; ok is false for unknown names.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "Ideal", "ideal":
		return PolicyIdeal, true
	case "Repred", "repred":
		return PolicyRepred, true
	case "DnRDnR", "dnrdnr":
		return PolicyDnRDnR, true
	case "DnRR", "dnrr":
		return PolicyDnRR, true
	}
	return PolicyIdeal, false
}

// Entry is one in-flight prediction block.
type Entry struct {
	valid bool
	tag   uint16
	seq   uint64
	vals  [MaxNPred]uint64
	has   [MaxNPred]bool
}

// Values returns the entry's per-slot predicted values and validity.
func (e *Entry) Values() (vals [MaxNPred]uint64, has [MaxNPred]bool) {
	return e.vals, e.has
}

// Window is the speculative window. Size semantics: n > 0 gives an n-entry
// circular buffer; n == 0 disables the window ("None" in Fig. 7(b));
// n < 0 gives an unbounded window ("infinite").
type Window struct {
	entries  []Entry // circular buffer when bounded
	head     int
	infinite bool
	tagBits  int

	Probes, Hits uint64
}

// New builds a window. tagBits is the partial tag width (15 in the paper).
func New(size int, tagBits int) *Window {
	w := &Window{tagBits: tagBits}
	if size < 0 {
		w.infinite = true
	} else if size > 0 {
		w.entries = make([]Entry, size)
	}
	return w
}

// Reset empties the window, as New leaves it, keeping its allocation.
// The probe counters are measurement state and stay for their owner to
// zero.
func (w *Window) Reset() {
	clear(w.entries)
	if w.infinite {
		w.entries = w.entries[:0]
	}
	w.head = 0
}

// Enabled reports whether the window stores anything.
func (w *Window) Enabled() bool { return w.infinite || len(w.entries) > 0 }

// Tag computes the partial tag for a block address.
func (w *Window) Tag(blockPC uint64) uint16 {
	return uint16(util.Mix64(blockPC) & ((1 << w.tagBits) - 1))
}

// Insert pushes a new prediction block at the head.
func (w *Window) Insert(blockPC, seq uint64, vals [MaxNPred]uint64, has [MaxNPred]bool) {
	if !w.Enabled() {
		return
	}
	e := Entry{valid: true, tag: w.Tag(blockPC), seq: seq, vals: vals, has: has}
	if w.infinite {
		w.entries = append(w.entries, e)
		return
	}
	w.entries[w.head] = e
	w.head = (w.head + 1) % len(w.entries)
}

// Lookup returns the most recent (highest sequence number) valid entry
// matching blockPC's partial tag, or nil. In hardware this is one
// associative probe with a priority encoder (Fig. 4).
func (w *Window) Lookup(blockPC uint64) *Entry {
	if !w.Enabled() {
		return nil
	}
	w.Probes++
	tag := w.Tag(blockPC)
	var best *Entry
	if w.infinite {
		for i := len(w.entries) - 1; i >= 0; i-- {
			e := &w.entries[i]
			if e.valid && e.tag == tag {
				best = e
				break // entries are seq-ordered when unbounded
			}
		}
	} else {
		for i := range w.entries {
			e := &w.entries[i]
			if e.valid && e.tag == tag && (best == nil || e.seq > best.seq) {
				best = e
			}
		}
	}
	if best != nil {
		w.Hits++
	}
	return best
}

// SquashYoungerThan invalidates entries with sequence numbers strictly
// greater than keepSeq (pipeline squash rollback). The Repred policy
// also drops the flush block's own entry, with InvalidateSeq.
func (w *Window) SquashYoungerThan(keepSeq uint64) {
	if !w.Enabled() {
		return
	}
	if w.infinite {
		n := len(w.entries)
		for n > 0 && w.entries[n-1].seq > keepSeq {
			n--
		}
		w.entries = w.entries[:n]
		return
	}
	for i := range w.entries {
		if w.entries[i].valid && w.entries[i].seq > keepSeq {
			w.entries[i].valid = false
		}
	}
}

// InvalidateSeq drops the entry whose first-instruction sequence number is
// exactly seq (used by the Repred recovery policy to squash the head).
func (w *Window) InvalidateSeq(seq uint64) {
	if !w.Enabled() {
		return
	}
	if w.infinite {
		for i := len(w.entries) - 1; i >= 0; i-- {
			if w.entries[i].seq == seq {
				w.entries = append(w.entries[:i], w.entries[i+1:]...)
				return
			}
		}
		return
	}
	for i := range w.entries {
		if w.entries[i].valid && w.entries[i].seq == seq {
			w.entries[i].valid = false
			return
		}
	}
}

// StorageBits returns the window's storage cost for bounded windows
// (unbounded windows are idealistic and report 0).
func (w *Window) StorageBits(npred int) int {
	if w.infinite {
		return 0
	}
	return len(w.entries) * (w.tagBits + 16 + npred*(64+4))
}
