package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans are recorded from outside the program: the program
// itself carries no span code.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a root
	Op     int    `json:"op"`               // the op (or probe) the span belongs to
	Name   string `json:"name"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced runs pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// begin opens a span for children to name as their parent; the returned
// function closes it.
func (r *recorder) begin(op, parent int, name string) (int, func()) {
	if r == nil {
		return 0, func() {}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(r.t0)})
	return id, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.spans[id-1].End = time.Since(r.t0)
	}
}

// time runs fn inside a span and returns the span's id and duration.
func (r *recorder) time(op, parent int, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return r.add(op, parent, name, start, end), end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line to path.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// depthSelf computes a layer's self time from a probe. Every probe op
// calls the same work at successive depths, outermost first, and repeats
// the sequence probeReps times; the fastest repetition of each depth is
// the one least disturbed by the host. The self time of the layer at
// depth outer is its fastest duration minus the fastest durations of
// the depths one level in (inner). It returns one value per op that has
// all the named spans, in op order.
func depthSelf(spans []span, outer string, inner ...string) []time.Duration {
	names := append([]string{outer}, inner...)
	best := map[int]map[string]time.Duration{}
	var order []int
	for _, s := range spans {
		if !slices.Contains(names, s.Name) {
			continue
		}
		m := best[s.Op]
		if m == nil {
			m = map[string]time.Duration{}
			best[s.Op] = m
			order = append(order, s.Op)
		}
		if d, ok := m[s.Name]; !ok || s.dur() < d {
			m[s.Name] = s.dur()
		}
	}
	var out []time.Duration
	for _, op := range order {
		self, ok := best[op][outer]
		for _, n := range inner {
			d, has := best[op][n]
			ok = ok && has
			self -= d
		}
		if ok {
			out = append(out, self)
		}
	}
	return out
}

// fastest returns each op's fastest span of the given name, in op order.
func fastest(spans []span, name string) []time.Duration { return depthSelf(spans, name) }

// durations returns the durations of the spans with the given name, in
// recording order.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// batchTails sums, over the engine batches of one sweep op, how long the
// last cell of each batch ran alone: the end of the batch's last cell
// minus the end of the one before it. cells are the op's simulated
// (uncached) cell spans; batch[i] numbers the batch cell i belongs to.
func batchTails(cells []span, batch []int) time.Duration {
	last := map[int][2]time.Duration{} // batch → two latest ends, latest first
	for i, c := range cells {
		l := last[batch[i]]
		switch {
		case c.End >= l[0]:
			l[1], l[0] = l[0], c.End
		case c.End > l[1]:
			l[1] = c.End
		}
		last[batch[i]] = l
	}
	var sum time.Duration
	for _, l := range last {
		if l[1] > 0 {
			sum += l[0] - l[1]
		}
	}
	return sum
}
