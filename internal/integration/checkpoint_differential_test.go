package integration

import (
	"os"
	"path/filepath"
	"testing"

	"bebop/internal/perf"
	"bebop/internal/pipeline"
	"bebop/internal/trace"
	"bebop/internal/workload"
)

// recordTestTrace records insts instructions of a synthetic profile into
// a .bbt file under dir and returns its source.
func recordTestTrace(t *testing.T, dir, bench string, insts int64) trace.FileSource {
	t.Helper()
	prof, ok := workload.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown workload %q", bench)
	}
	path := filepath.Join(dir, bench+trace.Ext)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := trace.Record(f, workload.New(prof, insts), trace.WriterOptions{Name: bench, Seed: prof.Seed}); err != nil {
		t.Fatalf("record %s: %v", bench, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return trace.NewFileSource(path)
}

// TestCheckpointRestoreBitIdentical is the behavior pin for the
// checkpoint subsystem: for every pinned perf configuration, warming a
// processor over [0, k), snapshotting, round-tripping the snapshot
// through the side-file on disk, restoring it into a *recycled*
// (Reset, pool-style) processor whose trace reader was seeked to k, and
// running detailed to the end of the trace must produce exactly the
// same pipeline.Result as one processor warming [0, k) and running
// detailed [k, m) straight through — cycles, IPC, branch and value
// prediction statistics, cache misses, everything.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const k, m = 9000, 21000
	for _, cfg := range perf.Configs() {
		cfg := cfg
		for _, bench := range []string{"gcc", "mcf"} {
			bench := bench
			t.Run(cfg.Name+"/"+bench, func(t *testing.T) {
				t.Parallel()
				src := recordTestTrace(t, t.TempDir(), bench, m)

				// Reference: continuous warm then detailed, one processor.
				s1, err := src.Open(m)
				if err != nil {
					t.Fatal(err)
				}
				p1 := pipeline.New(cfg.Mk(), s1)
				if n := p1.Warm(k); n != k {
					t.Fatalf("reference warm consumed %d of %d", n, k)
				}
				ref := p1.RunWarm(0, 0)

				// Checkpointed path: warm a second processor, snapshot at k.
				s2, err := src.Open(k)
				if err != nil {
					t.Fatal(err)
				}
				p2 := pipeline.New(cfg.Mk(), s2)
				if n := p2.Warm(k); n != k {
					t.Fatalf("checkpoint warm consumed %d of %d", n, k)
				}
				ck, err := p2.Snapshot(k)
				if err != nil {
					t.Fatalf("Snapshot: %v", err)
				}

				// Round-trip through the on-disk side-file, exercising
				// write, load, identity validation and nearest-point lookup.
				ckPath := trace.CheckpointPath(src.Path, cfg.Name)
				err = trace.WriteCheckpoints(ckPath, &trace.CheckpointFile{
					TraceName:  bench,
					TraceInsts: m,
					ConfigName: cfg.Name,
					Points:     []*pipeline.Checkpoint{ck},
				})
				if err != nil {
					t.Fatalf("WriteCheckpoints: %v", err)
				}
				cf, err := trace.LoadCheckpoints(ckPath)
				if err != nil {
					t.Fatalf("LoadCheckpoints: %v", err)
				}
				r, err := trace.OpenFile(src.Path)
				if err != nil {
					t.Fatal(err)
				}
				hdr := r.Header()
				r.Close()
				set, err := trace.OpenCheckpoints(ckPath)
				if err != nil {
					t.Fatalf("OpenCheckpoints: %v", err)
				}
				err = set.Validate(hdr, cfg.Name)
				set.Close()
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				if cf.Nearest(k-1) != nil {
					t.Fatal("Nearest returned a checkpoint from the future")
				}
				loaded := cf.Nearest(m)
				if loaded == nil || loaded.InstOffset != k {
					t.Fatalf("Nearest(m) = %+v, want offset %d", loaded, k)
				}

				// Restore into the recycled processor over a reader seeked
				// to k — the pool path the sampled scheduler takes.
				s3, err := src.Open(m)
				if err != nil {
					t.Fatal(err)
				}
				if err := s3.(*trace.Reader).SeekInst(k); err != nil {
					t.Fatalf("SeekInst: %v", err)
				}
				p2.Release()
				p2.Reset(cfg.Mk(), s3)
				if err := p2.Restore(loaded); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				got := p2.RunWarm(0, 0)

				if got != ref {
					t.Errorf("restored run diverges from straight-through run:\nref: %+v\ngot: %+v", ref, got)
				}
			})
		}
	}
}

// TestCheckpointValidationRejectsMismatch pins the side-file's identity
// checks: wrong config, wrong trace and stale totals are all refused.
func TestCheckpointValidationRejectsMismatch(t *testing.T) {
	const m = 4000
	src := recordTestTrace(t, t.TempDir(), "gcc", m)
	cfg := perf.Configs()[0]
	s, err := src.Open(2000)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(cfg.Mk(), s)
	p.Warm(2000)
	ck, err := p.Snapshot(2000)
	if err != nil {
		t.Fatal(err)
	}
	ckPath := trace.CheckpointPath(src.Path, cfg.Name)
	if err := trace.WriteCheckpoints(ckPath, &trace.CheckpointFile{TraceName: "gcc", TraceInsts: m,
		ConfigName: cfg.Name, Points: []*pipeline.Checkpoint{ck}}); err != nil {
		t.Fatal(err)
	}
	set, err := trace.OpenCheckpoints(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	r, err := trace.OpenFile(src.Path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := r.Header()
	r.Close()
	if err := set.Validate(hdr, cfg.Name); err != nil {
		t.Fatalf("matching identity rejected: %v", err)
	}
	if err := set.Validate(hdr, "Some_Other_Config"); err == nil {
		t.Error("wrong config accepted")
	}
	other := hdr
	other.Name = "mcf"
	if err := set.Validate(other, cfg.Name); err == nil {
		t.Error("wrong trace name accepted")
	}
	short := hdr
	short.Insts = m - 1
	if err := set.Validate(short, cfg.Name); err == nil {
		t.Error("wrong instruction total accepted")
	}
	// Restoring under a mismatched processor configuration is refused at
	// the pipeline layer even when the file-level identity was bypassed.
	p.Release()
	s2, _ := src.Open(m)
	p.Reset(cfg.Mk(), s2)
	bad := *ck
	bad.ConfigName = "Some_Other_Config"
	if err := p.Restore(&bad); err == nil {
		t.Error("checkpoint from a different config restored")
	}
}
