package trace_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bebop/internal/core"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/trace"
	"bebop/internal/workload"
)

// sameInst compares the fields a replay must reproduce. UOps slots past
// NumUOps are caller-owned scratch and excluded on purpose.
func sameInst(a, b *isa.Inst) bool {
	if a.PC != b.PC || a.Size != b.Size || a.NumUOps != b.NumUOps ||
		a.Kind != b.Kind || a.Taken != b.Taken || a.Target != b.Target {
		return false
	}
	for j := 0; j < a.NumUOps; j++ {
		if a.UOps[j] != b.UOps[j] {
			return false
		}
	}
	return true
}

func record(t *testing.T, prof workload.Profile, insts int64, opts trace.WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts.Name = prof.Name
	opts.Seed = prof.Seed
	n, _, err := trace.Record(&buf, workload.New(prof, insts), opts)
	if err != nil {
		t.Fatalf("%s: record: %v", prof.Name, err)
	}
	if n != uint64(insts) {
		t.Fatalf("%s: recorded %d insts, want %d", prof.Name, n, insts)
	}
	return buf.Bytes()
}

// openBytes opens an in-memory trace.
func openBytes(t *testing.T, data []byte) *trace.Reader {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRoundTripAllProfiles proves record→replay reproduces the live
// generator instruction-for-instruction over the whole Table II suite.
func TestRoundTripAllProfiles(t *testing.T) {
	const insts = 5000
	for _, prof := range workload.Profiles() {
		data := record(t, prof, insts, trace.WriterOptions{FrameInsts: 512})
		r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("%s: open: %v", prof.Name, err)
		}
		if h := r.Header(); h.Name != prof.Name || h.Seed != prof.Seed || h.Insts != insts {
			t.Fatalf("%s: header %+v does not describe the recording", prof.Name, h)
		}
		gen := workload.New(prof, insts)
		var want, got isa.Inst
		for n := 0; ; n++ {
			wb, gb := gen.Next(&want), r.Next(&got)
			if wb != gb {
				t.Fatalf("%s: stream length diverged at inst %d (gen %v, replay %v, err %v)",
					prof.Name, n, wb, gb, r.Err())
			}
			if !wb {
				break
			}
			if !sameInst(&want, &got) {
				t.Fatalf("%s: inst %d diverged:\ngen:    %+v\nreplay: %+v", prof.Name, n, want, got)
			}
		}
		if r.Err() != nil {
			t.Fatalf("%s: replay error: %v", prof.Name, r.Err())
		}
	}
}

// TestReplayResultIdenticalAllProfiles is the acceptance differential:
// for every profile, running a processor from the recorded trace yields
// the same pipeline.Result as running it from the live generator.
func TestReplayResultIdenticalAllProfiles(t *testing.T) {
	const insts = 2000 // a run consumes 1.5× this (warmup + measure)
	dir := t.TempDir()
	for _, prof := range workload.Profiles() {
		data := record(t, prof, insts+insts/2, trace.WriterOptions{FrameInsts: 600})
		path := filepath.Join(dir, prof.Name+trace.Ext)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		live, err := core.RunSourceCtx(context.Background(), workload.ProfileSource{Prof: prof},
			insts/2, insts, core.Baseline())
		if err != nil {
			t.Fatalf("%s: live: %v", prof.Name, err)
		}
		replay, err := core.RunSourceCtx(context.Background(), trace.NewFileSource(path),
			insts/2, insts, core.Baseline())
		if err != nil {
			t.Fatalf("%s: replay: %v", prof.Name, err)
		}
		if live != replay {
			t.Fatalf("%s: replay result diverged from live generator:\nlive:   %+v\nreplay: %+v",
				prof.Name, live, replay)
		}
	}
}

// TestSeekInst checks that a file-backed trace reports its totals and
// that SeekInst lands exactly on the requested instruction without
// decoding the prefix differently.
func TestSeekInst(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	const insts = 20000
	path := filepath.Join(t.TempDir(), "gcc"+trace.Ext)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, uops, err := trace.Record(f, workload.New(prof, insts),
		trace.WriterOptions{Name: "gcc", Seed: prof.Seed, FrameInsts: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if h := r.Header(); h.Insts != n || h.UOps != uops {
		t.Fatalf("header totals %d/%d, recorded %d/%d", h.Insts, h.UOps, n, uops)
	}
	if r.Frames() != (insts+1023)/1024 {
		t.Fatalf("index has %d frames, want %d", r.Frames(), (insts+1023)/1024)
	}
	const skip = 7777
	if err := r.SeekInst(skip); err != nil {
		t.Fatal(err)
	}
	gen := workload.New(prof, insts)
	var want, got isa.Inst
	for i := 0; i < skip; i++ {
		gen.Next(&want)
	}
	for i := skip; gen.Next(&want); i++ {
		if !r.Next(&got) {
			t.Fatalf("replay ended at inst %d (err %v)", i, r.Err())
		}
		if !sameInst(&want, &got) {
			t.Fatalf("inst %d diverged after SeekInst(%d)", i, skip)
		}
	}
	if r.Next(&got) {
		t.Fatal("replay outlived the generator")
	}

	// Seeking past the end exhausts cleanly.
	if err := r.SeekInst(insts + 5); err != nil {
		t.Fatal(err)
	}
	if r.Next(&got) {
		t.Fatal("seek past end must exhaust the reader")
	}
	if r.Err() != nil {
		t.Fatalf("seek past end is not an error, got %v", r.Err())
	}
}

// count drains r and returns how many instructions it yielded.
func count(t *testing.T, r *trace.Reader) int64 {
	t.Helper()
	var in isa.Inst
	n := int64(0)
	for r.Next(&in) {
		n++
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return n
}

// TestSetLimit caps replay like a generator's maxInsts: the limit is an
// instruction of the trace, so a seek does not move it.
func TestSetLimit(t *testing.T) {
	prof, _ := workload.ProfileByName("swim")
	data := record(t, prof, 3000, trace.WriterOptions{FrameInsts: 512})
	r := openBytes(t, data)
	r.SetLimit(1234)
	if got := count(t, r); got != 1234 {
		t.Fatalf("limited replay produced %d insts, want 1234", got)
	}
	const n, k = 2500, 1100
	r = openBytes(t, data)
	r.SetLimit(n)
	if err := r.SeekInst(k); err != nil {
		t.Fatal(err)
	}
	if got := count(t, r); got != n-k {
		t.Fatalf("after SetLimit(%d) and SeekInst(%d) replay produced %d insts, want %d", n, k, got, n-k)
	}
	r = openBytes(t, data)
	r.SetLimit(-1)
	if got := count(t, r); got != 3000 {
		t.Fatalf("unlimited replay produced %d insts, want 3000", got)
	}

	// One Reader serves round after round, as a sampling worker's does:
	// each (SetLimit, SeekInst) round replays what a fresh Reader replays.
	replay := func(r *trace.Reader, limit, at int64) []isa.Inst {
		t.Helper()
		r.SetLimit(limit)
		if err := r.SeekInst(at); err != nil {
			t.Fatal(err)
		}
		var out []isa.Inst
		var in isa.Inst
		for r.Next(&in) {
			out = append(out, in)
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		return out
	}
	reused := openBytes(t, data)
	for _, round := range []struct {
		name      string
		limit, at int64
	}{
		{"into the middle of a frame", 1150, 1100},
		{"forward within a frame", 1400, 1300},
		{"backward across frames", 900, 100},
		{"to 0", 600, 0},
		{"to 0 again", 300, 0},
		{"past the limit", 2400, 2500},
		{"unlimited, backward", -1, 2000},
	} {
		want := replay(openBytes(t, data), round.limit, round.at)
		got := replay(reused, round.limit, round.at)
		if len(got) != len(want) {
			t.Fatalf("%s: the reused Reader replayed %d insts, a fresh one %d", round.name, len(got), len(want))
		}
		for i := range want {
			if !sameInst(&want[i], &got[i]) {
				t.Fatalf("%s: instruction %d differs from a fresh Reader's", round.name, round.at+int64(i))
			}
		}
	}
}

// TestReplayAllocationFree extends the pipeline's hot-loop property to
// traces: once buffers are warm, a processor replaying a trace allocates
// (near) nothing. The budget is TestHotLoopAllocationFree's 500; opening
// the Reader, a fresh one per run, accounts for a handful of allocations,
// its frame buffer among them. Frames are stored raw, so the one case is
// the uncompressed replay.
func TestReplayAllocationFree(t *testing.T) {
	t.Run("uncompressed", func(t *testing.T) {
		prof, _ := workload.ProfileByName("gcc")
		data := record(t, prof, 30000, trace.WriterOptions{})
		p := pipeline.New(pipeline.DefaultConfig(), openBytes(t, data))
		p.RunWarm(0, 0) // warm pools and rings

		allocs := testing.AllocsPerRun(1, func() {
			p.Reset(pipeline.DefaultConfig(), openBytes(t, data))
			p.RunWarm(0, 0)
		})
		if allocs > 500 {
			t.Fatalf("trace replay allocates: %.0f allocs for 30k insts (budget 500)", allocs)
		}
	})
}

// TestReaderAllocatesOnlyAtOpen: open sizes the frame buffer to the
// largest frame, so draining a Reader, frames of every size included,
// allocates no more than reading its first instruction.
func TestReaderAllocatesOnlyAtOpen(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	data := record(t, prof, 30000, trace.WriterOptions{})
	read := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			r := openBytes(t, data)
			var in isa.Inst
			got := 0
			for got != n && r.Next(&in) {
				got++
			}
			if r.Err() != nil || (n < 0 && got != 30000) {
				t.Fatalf("read %d insts, error %v", got, r.Err())
			}
		})
	}
	if one, all := read(1), read(-1); all > one {
		t.Errorf("draining a Reader allocates %.0f times, reading one instruction %.0f", all, one)
	}
}

// TestCatalogFromDir builds the CLI catalog: 36 profiles plus scanned
// traces, with collisions rejected.
func TestCatalogFromDir(t *testing.T) {
	prof, _ := workload.ProfileByName("mcf")
	dir := t.TempDir()
	data := record(t, prof, 1000, trace.WriterOptions{})
	if err := os.WriteFile(filepath.Join(dir, "mcf-1k"+trace.Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notatrace.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := trace.Catalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != len(workload.Profiles())+1 {
		t.Fatalf("catalog has %d workloads, want %d", cat.Len(), len(workload.Profiles())+1)
	}
	src, ok := cat.Lookup("mcf-1k")
	if !ok {
		t.Fatalf("trace workload missing from catalog (have %v)", cat.Names())
	}
	stream, err := src.Open(500)
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	count := 0
	for stream.Next(&in) {
		count++
	}
	if count != 500 {
		t.Fatalf("catalog trace produced %d insts, want 500", count)
	}
	stream.(*trace.Reader).Close()

	// A trace named like a profile must not shadow it.
	if err := os.WriteFile(filepath.Join(dir, "mcf"+trace.Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Catalog(dir); err == nil {
		t.Fatal("profile-shadowing trace name must be rejected")
	}
}

// TestRunSourceRejectsShortTrace: a trace shorter than the
// warmup+measure budget errors instead of silently reporting a cold,
// short run as measured statistics.
func TestRunSourceRejectsShortTrace(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	path := filepath.Join(t.TempDir(), "gcc-short"+trace.Ext)
	data := record(t, prof, 10000, trace.WriterOptions{})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src := trace.NewFileSource(path)
	// 1.5 × 10000 > 10000: must refuse.
	if _, err := core.RunSourceCtx(context.Background(), src, 5000, 10000, core.Baseline()); err == nil ||
		!strings.Contains(err.Error(), "10000 instructions") {
		t.Fatalf("short trace accepted: %v", err)
	}
	// Exactly fitting budget (warmup 3333 + measured 6666 = 9999) runs.
	if _, err := core.RunSourceCtx(context.Background(), src, 3333, 6666, core.Baseline()); err != nil {
		t.Fatal(err)
	}
}

// countingReaderAt counts the ReadAt calls made on it.
type countingReaderAt struct {
	io.ReaderAt
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.ReaderAt.ReadAt(p, off)
}

// TestOpenReadsIndexInOneCall: opening a trace reads the header, the
// trailer and the whole frame index in one call each, however many
// frames the index lists, and a replay reads each frame in one call.
func TestOpenReadsIndexInOneCall(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	data := record(t, prof, 40_000, trace.WriterOptions{FrameInsts: 256})
	src := &countingReaderAt{ReaderAt: bytes.NewReader(data)}
	r, err := trace.NewReader(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames() < 150 {
		t.Fatalf("trace has %d frames; the test wants a long index", r.Frames())
	}
	if src.reads != 3 {
		t.Errorf("opening a %d-frame trace issued %d reads, want 3", r.Frames(), src.reads)
	}
	count(t, r)
	if src.reads != 3+r.Frames() {
		t.Errorf("replaying %d frames issued %d reads, want %d", r.Frames(), src.reads-3, r.Frames())
	}
}

// TestV1TraceRefused: a trace in the previous format, recorded before
// version 2, fails to open and fails the catalog scan, with a message
// that names its version and how to replace it.
func TestV1TraceRefused(t *testing.T) {
	const v1 = "testdata/trace-v1.bbt"
	_, err := trace.OpenFile(v1)
	if !errors.Is(err, trace.ErrFormat) {
		t.Fatalf("OpenFile(%s): %v, want ErrFormat", v1, err)
	}
	for _, want := range []string{"version 1", "bebop-trace record"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	data, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gcc-300"+trace.Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Catalog(dir); !errors.Is(err, trace.ErrFormat) {
		t.Fatalf("catalog over a v1 trace: %v, want ErrFormat", err)
	}
}
