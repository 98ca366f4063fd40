package trace_test

import (
	"bytes"
	"context"
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

// TestRoundTripAllProfiles proves record→replay reproduces the live
// generator instruction-for-instruction over the whole Table II suite,
// with compression on (the default) and off.
func TestRoundTripAllProfiles(t *testing.T) {
	const insts = 5000
	for i, prof := range workload.Profiles() {
		opts := trace.WriterOptions{FrameInsts: 512}
		if i%2 == 1 {
			opts.Uncompressed = true
		}
		data := record(t, prof, insts, opts)
		r, err := trace.NewReader(bytes.NewReader(data))
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

// TestFilePatchedHeaderAndSeek checks that file-backed writers patch
// the header counts in place and that SeekInst lands exactly on the
// requested instruction without decoding the prefix differently.
func TestFilePatchedHeaderAndSeek(t *testing.T) {
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

	// The fixed header alone (first 32 bytes) must carry the totals:
	// that is the io.WriterAt patch, not the index fallback.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewReader(noSeek{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	if h := sr.Header(); h.Insts != n || h.UOps != uops {
		t.Fatalf("streamed header counts %d/%d, want patched %d/%d", h.Insts, h.UOps, n, uops)
	}

	r, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
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

// TestSetLimit caps replay like a generator's maxInsts.
func TestSetLimit(t *testing.T) {
	prof, _ := workload.ProfileByName("swim")
	data := record(t, prof, 3000, trace.WriterOptions{})
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r.SetLimit(1234)
	var in isa.Inst
	count := 0
	for r.Next(&in) {
		count++
	}
	if count != 1234 || r.Err() != nil {
		t.Fatalf("limited replay produced %d insts (err %v), want 1234", count, r.Err())
	}
}

// TestReplayAllocationFree extends PR 2's hot-loop property to traces:
// once buffers are warm, a processor replaying a trace allocates
// (near) nothing — the Reader reuses its frame, payload and flate
// state across frames and across Resets.
//
// The uncompressed path gets the same 500-alloc budget as
// TestHotLoopAllocationFree: the Reader contributes ~2 allocations per
// full replay. Flate replay additionally pays compress/flate's
// per-block huffman tables (~70 per 4096-inst frame, not reusable from
// outside the stdlib); that is per-frame, not per-instruction, and the
// looser budget pins it so per-instruction churn still fails.
func TestReplayAllocationFree(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	for _, tc := range []struct {
		name   string
		opts   trace.WriterOptions
		budget float64
	}{
		{"uncompressed", trace.WriterOptions{Uncompressed: true}, 500},
		{"flate", trace.WriterOptions{}, 1500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := record(t, prof, 30000, tc.opts)
			br := bytes.NewReader(data)
			r, err := trace.NewReader(br)
			if err != nil {
				t.Fatal(err)
			}
			p := pipeline.New(pipeline.DefaultConfig(), r)
			p.RunWarm(0, 0) // warm pools, rings, and reader buffers

			allocs := testing.AllocsPerRun(1, func() {
				br.Reset(data)
				if err := r.Reset(br); err != nil {
					t.Fatal(err)
				}
				p.Reset(pipeline.DefaultConfig(), r)
				p.RunWarm(0, 0)
			})
			if allocs > tc.budget {
				t.Fatalf("trace replay allocates: %.0f allocs for 30k insts (budget %.0f)",
					allocs, tc.budget)
			}
		})
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

// noSeek hides the Seeker of a bytes.Reader, forcing the streaming path.
type noSeek struct{ r *bytes.Reader }

func (n noSeek) Read(p []byte) (int, error) { return n.r.Read(p) }

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

// countingReadSeeker counts the Read calls made on it.
type countingReadSeeker struct {
	io.ReadSeeker
	reads int
}

func (c *countingReadSeeker) Read(p []byte) (int, error) {
	c.reads++
	return c.ReadSeeker.Read(p)
}

// TestOpenReadsIndexInOneCall: opening a seekable trace reads the
// header, the trailer and the whole frame index in a handful of calls,
// however many frames the index lists.
func TestOpenReadsIndexInOneCall(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	data := record(t, prof, 40_000, trace.WriterOptions{FrameInsts: 256})
	src := &countingReadSeeker{ReadSeeker: bytes.NewReader(data)}
	r, err := trace.NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames() < 150 {
		t.Fatalf("trace has %d frames; the test wants a long index", r.Frames())
	}
	if src.reads > 6 {
		t.Errorf("opening a %d-frame trace issued %d reads, want at most 6", r.Frames(), src.reads)
	}
}
