package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// probeSpans lays out one probe op: its depths run one after another,
// each a child of the probe root.
func probeSpans(op int, depths map[string]int, order []string) []span {
	var out []span
	at := time.Duration(0)
	for i, name := range order {
		d := ms(depths[name])
		out = append(out, span{ID: op*10 + i + 1, Parent: op * 10, Op: op, Name: name, Start: at, End: at + d})
		at += d
	}
	return out
}

func TestDepthSelfSubtractsTheNextDepth(t *testing.T) {
	order := []string{"serve.post", "sim.Run", "core.RunSourceCtx", "pipeline.RunWarm", "workload.source"}
	var spans []span
	spans = append(spans, probeSpans(1, map[string]int{
		"serve.post": 130, "sim.Run": 121, "core.RunSourceCtx": 120, "pipeline.RunWarm": 110, "workload.source": 4,
	}, order)...)
	spans = append(spans, probeSpans(2, map[string]int{
		"serve.post": 70, "sim.Run": 60, "core.RunSourceCtx": 61, "pipeline.RunWarm": 55, "workload.source": 3,
	}, order)...)
	// A second repetition of op 1: the fastest of each depth counts.
	spans = append(spans, probeSpans(1, map[string]int{
		"serve.post": 125, "sim.Run": 123, "core.RunSourceCtx": 119, "pipeline.RunWarm": 111, "workload.source": 4,
	}, order)...)
	// Op 3 lacks its core span: it has no core self time.
	spans = append(spans, probeSpans(3, map[string]int{
		"core.RunSourceCtx": 50, "pipeline.RunWarm": 40,
	}, []string{"pipeline.RunWarm"})...)

	check := func(got []time.Duration, want ...time.Duration) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
	check(depthSelf(spans, "serve.post", "sim.Run"), ms(125-121), ms(10))
	// A difference of two separately measured calls may come out
	// negative; it is reported as measured.
	check(depthSelf(spans, "sim.Run", "core.RunSourceCtx"), ms(121-119), ms(-1))
	check(depthSelf(spans, "core.RunSourceCtx", "pipeline.RunWarm", "workload.source"), ms(119-110-4), ms(3))
	check(durations(spans, "pipeline.RunWarm"), ms(110), ms(55), ms(111), ms(40))
}

func TestBatchTailsSumsEachBatchsLoneCell(t *testing.T) {
	cell := func(start, end int) span { return span{Start: ms(start), End: ms(end)} }
	cells := []span{
		cell(0, 100), cell(0, 80), cell(80, 150), // batch 0: last ends at 150, the one before at 100
		cell(150, 200), cell(150, 260), // batch 1: 260 vs 200
		cell(260, 300), // batch 2: a single cell has no tail
	}
	batch := []int{0, 0, 0, 1, 1, 2}
	if got, want := batchTails(cells, batch), ms(50+60); got != want {
		t.Errorf("batchTails = %v, want %v", got, want)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id, _ := r.time(1, 0, "x", func() {})
	if id != 0 || r.snapshot() != nil {
		t.Error("nil recorder recorded a span")
	}
	r = newRecorder()
	root := r.add(1, 0, "op", time.Now(), time.Now())
	child, _ := r.time(1, root, "child", func() {})
	s := r.snapshot()
	if len(s) != 2 || s[1].ID != child || s[1].Parent != root || s[1].Op != 1 {
		t.Errorf("spans = %v", s)
	}
}
