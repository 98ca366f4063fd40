package integration

import (
	"os"
	"path/filepath"
	"testing"

	"bebop/internal/core"
	"bebop/internal/isa"
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
	return recordProfileTrace(t, dir, prof, insts)
}

// recordProfileTrace records insts instructions of prof into a .bbt
// file under dir, named after the profile, and returns its source.
func recordProfileTrace(t *testing.T, dir string, prof workload.Profile, insts int64) trace.FileSource {
	t.Helper()
	bench := prof.Name
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

// TestRearmedProcessorMatchesFresh: a sampling worker keeps its
// processor across intervals, re-arms it (Processor.Rearm) and restores
// the next interval's point over the tables the last interval left. For
// every point of a side-file, a processor that has just run a detailed
// interval from another point, re-armed and restored, must run the
// interval from this point exactly as a fresh processor restored to it
// does: nothing the last interval left — store sets, MSHRs, DRAM clocks,
// counters, BeBoP's speculative window and FIFO update queue — may
// reach the next. The synthetic profiles almost never reorder a load
// before a store it aliases, so povray runs with a 64-byte footprint
// too: its memory-order flushes train the store sets.
func TestRearmedProcessorMatchesFresh(t *testing.T) {
	const insts, every, interval = 40_000, 5_000, 4_000
	var profs []workload.Profile
	for _, bench := range []string{"gcc", "mcf", "povray"} {
		prof, _ := workload.ProfileByName(bench)
		profs = append(profs, prof)
	}
	aliased := profs[2]
	aliased.Name, aliased.FootprintLog2 = "povray-64B", 6
	profs = append(profs, aliased)
	for _, cfg := range perf.Configs() {
		cfg := cfg
		for _, prof := range profs {
			prof := prof
			t.Run(cfg.Name+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				src := recordProfileTrace(t, t.TempDir(), prof, insts)
				points, _, err := core.BuildCheckpoints(src, cfg.Mk, every, insts)
				if err != nil {
					t.Fatal(err)
				}
				// from opens the trace for the interval that starts at
				// instruction at, positioned there.
				from := func(at int64) isa.Stream {
					s, err := src.Open(at + interval)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { s.(*trace.Reader).Close() })
					if err := s.(*trace.Reader).SeekInst(at); err != nil {
						t.Fatal(err)
					}
					return s
				}
				last := points[len(points)-1]
				used := pipeline.New(cfg.Mk(), from(last.InstOffset))
				if err := used.Restore(last); err != nil {
					t.Fatal(err)
				}
				used.RunWarm(0, 0)
				for _, ck := range points {
					fresh := pipeline.New(cfg.Mk(), from(ck.InstOffset))
					if err := fresh.Restore(ck); err != nil {
						t.Fatal(err)
					}
					want := fresh.RunWarm(0, 0)
					used.Rearm(from(ck.InstOffset))
					if err := used.Restore(ck); err != nil {
						t.Fatalf("point %d: %v", ck.InstOffset, err)
					}
					if got := used.RunWarm(0, 0); got != want {
						t.Errorf("point %d: the re-armed processor diverges from a fresh one:\nfresh:    %+v\nre-armed: %+v",
							ck.InstOffset, want, got)
					}
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
