package pipeline

// timedHeap is a binary min-heap of woken IQ µ-ops waiting for their
// ready cycle, ordered by (ready cycle, Seq). Each entry carries the
// µ-op's Seq at push time: µ-ops are recycled under fresh Seqs, so an
// entry whose Seq no longer matches is stale. (container/heap would box
// every entry in an interface.)
type timedHeap []timedEntry

type timedEntry struct {
	at  int64
	seq uint64
	u   *UOp
}

func (e *timedEntry) before(f *timedEntry) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

// push adds u, due at u.readyAt.
func (h *timedHeap) push(u *UOp) {
	s := append(*h, timedEntry{at: u.readyAt, seq: u.Seq, u: u})
	e := s[len(s)-1]
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// dueBy reports whether the earliest entry is due by cycle now.
func (h timedHeap) dueBy(now int64) bool { return len(h) > 0 && h[0].at <= now }

// pop removes and returns the earliest entry; the heap must not be empty.
func (h *timedHeap) pop() timedEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = timedEntry{}
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s[c+1].before(&s[c]) {
				c++
			}
			if !s[c].before(&last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}

// reset empties the heap, keeping its storage.
func (h *timedHeap) reset() {
	clear(*h)
	*h = (*h)[:0]
}
