package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bebop/internal/core"
	"bebop/internal/trace"
	"bebop/internal/workload/probe"
)

// TestReplayResultIdenticalProbes extends the record→replay differential
// to the adversarial probe streams: for one mid-grid pressure point per
// family, a processor fed from a recorded .bbt trace must produce a
// bit-identical pipeline.Result to one fed from the live probe source.
// Probes are the workloads whose cliffs the geometry oracle asserts on,
// so any trace-path divergence (lost value metadata, branch pattern
// skew) would silently invalidate cached probe results.
//
// The run uses EOLE+BeBoP so the differential covers the value
// prediction and speculative window state, not just branch counters.
func TestReplayResultIdenticalProbes(t *testing.T) {
	const insts = 4000 // a run consumes 1.5× this (warmup + measure)
	dir := t.TempDir()
	for _, f := range probe.Families() {
		p := f.Grid[len(f.Grid)/2]
		src, err := f.Source(p)
		if err != nil {
			t.Fatalf("%s/%d: %v", f.Name, p, err)
		}
		st, err := src.Open(insts + insts/2)
		if err != nil {
			t.Fatalf("%s/%d: open: %v", f.Name, p, err)
		}
		var buf bytes.Buffer
		n, _, err := trace.Record(&buf, st, trace.WriterOptions{
			Name:       src.Name(),
			FrameInsts: 600,
		})
		if err != nil {
			t.Fatalf("%s/%d: record: %v", f.Name, p, err)
		}
		if n != uint64(insts+insts/2) {
			t.Fatalf("%s/%d: recorded %d insts, want %d", f.Name, p, n, insts+insts/2)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%d%s", f.Name, p, trace.Ext))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}

		mk := core.EOLEBeBoP("Medium", core.MediumConfig())
		live, err := core.RunSourceCtx(context.Background(), src, insts/2, insts, mk)
		if err != nil {
			t.Fatalf("%s/%d: live run: %v", f.Name, p, err)
		}
		replay, err := core.RunSourceCtx(context.Background(), trace.NewFileSource(path), insts/2, insts, mk)
		if err != nil {
			t.Fatalf("%s/%d: replay: %v", f.Name, p, err)
		}
		if live != replay {
			t.Fatalf("%s/%d: replay result diverged from live probe:\nlive:   %+v\nreplay: %+v",
				f.Name, p, live, replay)
		}
	}
}
