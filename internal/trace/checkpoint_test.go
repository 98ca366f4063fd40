package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"bebop/internal/core"
	"bebop/internal/pipeline"
	"bebop/internal/specwindow"
	"bebop/internal/telemetry"
	"bebop/internal/workload"
)

// TestCheckpointRoundTrip writes the checkpoints a real warming pass
// builds and loads them back: every point must come back equal, under
// the baseline, under the EOLE/BeBoP Medium configuration and under a
// custom BeBoP geometry with an unbounded speculative window.
func TestCheckpointRoundTrip(t *testing.T) {
	const insts = 24_000
	dir := t.TempDir()
	path := filepath.Join(dir, "gcc"+Ext)
	if err := os.WriteFile(path, mkTrace(t, insts, WriterOptions{}), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mk := range []core.ConfigFactory{
		core.Baseline(),
		core.EOLEBeBoP("Medium", core.MediumConfig()),
		core.EOLEBeBoP("Unbounded", core.BlockConfig(4, 128, 64, 8, -1, specwindow.PolicyDnRDnR)),
	} {
		points, name, err := core.BuildCheckpoints(NewFileSource(path), mk, 8_000, insts)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) < 2 {
			t.Fatalf("%s: %d checkpoints, want at least 2", name, len(points))
		}
		ckPath := CheckpointPath(path, name)
		if err := WriteCheckpoints(ckPath, &CheckpointFile{
			TraceName: "gcc", TraceInsts: insts, ConfigName: name, Points: points,
		}); err != nil {
			t.Fatalf("%s: WriteCheckpoints: %v", name, err)
		}
		cf, err := LoadCheckpoints(ckPath)
		if err != nil {
			t.Fatalf("%s: LoadCheckpoints: %v", name, err)
		}
		if cf.TraceName != "gcc" || cf.TraceInsts != insts || cf.ConfigName != name {
			t.Errorf("%s: identity came back as %+v", name, cf)
		}
		if len(cf.Points) != len(points) {
			t.Fatalf("%s: loaded %d points, wrote %d", name, len(cf.Points), len(points))
		}
		for i, want := range points {
			if !reflect.DeepEqual(want, cf.Points[i]) {
				t.Errorf("%s: point %d (instruction %d) differs after the round trip", name, i, want.InstOffset)
			}
		}
	}
}

// filledFile is a valid side-file of two points: the first carries a
// few bytes of state, the second none. The container does not read the
// state, so any bytes do.
func filledFile(t testing.TB) *CheckpointFile {
	t.Helper()
	return &CheckpointFile{TraceName: "trace", TraceInsts: 10, ConfigName: "cfg", Points: []*pipeline.Checkpoint{
		{InstOffset: 1, ConfigName: "cfg", State: []byte("state")},
		{InstOffset: 2, ConfigName: "cfg"},
	}}
}

// encodeFile is the side-file bytes WriteCheckpoints would write for cf.
func encodeFile(t testing.TB, cf *CheckpointFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeCheckpoints(bufio.NewWriter(&buf), cf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readCheckpoints reads a whole side-file of size bytes from r, as
// LoadCheckpoints does from a file.
func readCheckpoints(r io.ReaderAt, size int64) (*CheckpointFile, error) {
	s, err := readCheckpointSet(r, size)
	if err != nil {
		return nil, err
	}
	return s.readAll()
}

// TestSideFileIsReadableByAll: a side-file gets the trace's mode, not
// the owner-only mode of the temporary file it is written through, so a
// server running under another account can restore from it.
func TestSideFileIsReadableByAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "filled"+CheckpointExt)
	if err := WriteCheckpoints(path, filledFile(t)); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Mode().Perm(); got != 0o644 {
		t.Errorf("side-file mode %v, want %v", got, os.FileMode(0o644))
	}
}

// TestLoadCheckpointsRejects: every way a side-file's container can be
// wrong fails the load with an error, so sim rebuilds the file. What a
// point's state may hold is Restore's to check.
func TestLoadCheckpointsRejects(t *testing.T) {
	valid := encodeFile(t, filledFile(t))
	fixture := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Header offsets: magic 0, version 4, trace-name length 6; with
	// filledFile's identity the point count is at 38. The last 8 bytes
	// locate the index, whose entry i holds point i's instruction offset
	// and then its byte offset. A point is its instruction offset, its
	// config name's length at 8 and bytes at 16, and its state's length
	// at 19.
	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), valid...)
		copy(out[at:], b)
		return out
	}
	index := int(binary.LittleEndian.Uint64(valid[len(valid)-8:]))
	le := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	entry := func(i, field int) uint64 {
		return binary.LittleEndian.Uint64(valid[index+16*i+8*field:])
	}
	point0 := int(entry(0, 1))
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v2", fixture("checkpoint-v2.ckpt")},
		{"v3", fixture("checkpoint-v3.ckpt")},
		{"bad magic", patch(0, 'X')},
		{"bad version", patch(4, 1, 0)},
		{"name longer than the file", patch(6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)},
		{"more points than the file holds", patch(38, 0, 0, 0, 0, 0, 1)},
		{"truncated", valid[:len(valid)-1]},
		{"truncated header", valid[:5]},
		{"empty", nil},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"index past the end", patch(len(valid)-8, le(uint64(len(valid)))...)},
		{"index not a whole number of entries", patch(len(valid)-8, le(uint64(index+1))...)},
		{"point instruction disagrees with the index", patch(index, le(entry(0, 0)+1)...)},
		{"point starts inside the previous one", patch(index+16+8, le(entry(1, 1)-1)...)},
		{"header runs into the first point", patch(index+8, le(entry(0, 1)+1)...)},
		{"point under another config", patch(point0+16, 'x')},
		{"state longer than its point", patch(point0+19, 0xFF)},
		{"state shorter than its point", patch(point0+19, 1)},
	} {
		path := filepath.Join(dir, tc.name+CheckpointExt)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoints(path); err == nil {
			t.Errorf("%s: loaded", tc.name)
		}
	}
	if _, err := readCheckpoints(bytes.NewReader(valid), int64(len(valid))); err != nil {
		t.Fatalf("the unpatched file does not load: %v", err)
	}
	// An older format is refused when the file is opened, before any
	// point is read.
	if _, err := OpenCheckpoints(filepath.Join(dir, "v3"+CheckpointExt)); err == nil {
		t.Error("opening a v3 side-file succeeded")
	}
}

// countingReaderAt counts the bytes read through it.
type countingReaderAt struct {
	r io.ReaderAt
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// baselineFile is a side-file built by a baseline warming pass over the
// first insts instructions of the gcc profile, a point every `every`.
func baselineFile(t testing.TB, every, insts int64) *CheckpointFile {
	t.Helper()
	prof, _ := workload.ProfileByName("gcc")
	points, name, err := core.BuildCheckpoints(workload.ProfileSource{Prof: prof}, core.Baseline(), every, insts)
	if err != nil {
		t.Fatal(err)
	}
	return &CheckpointFile{TraceName: "gcc", TraceInsts: insts, ConfigName: name, Points: points}
}

// TestCheckpointSetDecodesOnlyWhatItRestores: opening a side-file reads
// its header and index and nothing else, and RestoreNearest reads and
// decodes the one point it restores, which restores exactly as the
// fully loaded point does.
func TestCheckpointSetDecodesOnlyWhatItRestores(t *testing.T) {
	cf := baselineFile(t, 2_000, 8_000)
	data := encodeFile(t, cf)
	src := &countingReaderAt{r: bytes.NewReader(data)}
	set, err := readCheckpointSet(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.insts) != len(cf.Points) {
		t.Fatalf("set holds %d points, the file %d", len(set.insts), len(cf.Points))
	}
	index := int64(binary.LittleEndian.Uint64(data[len(data)-8:]))
	if want := set.offs[0] + int64(len(data)) - index; src.n.Load() != want {
		t.Errorf("opening read %d bytes, want the %d of the header, index and trailer", src.n.Load(), want)
	}

	mk := core.Baseline()
	p := pipeline.New(mk(), nil)
	src.n.Store(0)
	at, ok, err := set.RestoreNearest(p, cf.Points[1].InstOffset+1)
	if err != nil || !ok || at != cf.Points[1].InstOffset {
		t.Fatalf("RestoreNearest = %d, %v, %v; want %d, true, nil", at, ok, err, cf.Points[1].InstOffset)
	}
	if want := set.offs[2] - set.offs[1]; src.n.Load() != want {
		t.Errorf("restoring point 1 read %d bytes, its encoding is %d", src.n.Load(), want)
	}
	ref := pipeline.New(mk(), nil)
	if err := ref.Restore(cf.Points[1]); err != nil {
		t.Fatal(err)
	}
	got, err := p.Snapshot(at)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot(at)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the point RestoreNearest decoded restores differently from the loaded one")
	}

	if _, ok, err := set.RestoreNearest(p, cf.Points[0].InstOffset-1); ok || err != nil {
		t.Errorf("RestoreNearest before the first point = %v, %v; want false, nil", ok, err)
	}
}

// TestCheckpointSetPointErrors: a point that fails to decode or to
// restore surfaces from RestoreNearest as ErrBadPoint, so sim rebuilds
// the side-file.
func TestCheckpointSetPointErrors(t *testing.T) {
	cf := baselineFile(t, 2_000, 6_000)
	data := encodeFile(t, cf)
	set, err := readCheckpointSet(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// A processor of another configuration refuses the point.
	other := pipeline.New(core.EOLEBeBoP("Medium", core.MediumConfig())(), nil)
	if _, _, err := set.RestoreNearest(other, cf.Points[0].InstOffset); !errors.Is(err, ErrBadPoint) {
		t.Errorf("restore under another config: %v, want ErrBadPoint", err)
	}
	// Point 1's encoding starts with its instruction offset.
	binary.LittleEndian.PutUint64(data[set.offs[1]:], uint64(cf.Points[1].InstOffset+1))
	p := pipeline.New(core.Baseline()(), nil)
	if _, _, err := set.RestoreNearest(p, cf.Points[0].InstOffset); err != nil {
		t.Errorf("point 0 no longer restores: %v", err)
	}
	if _, _, err := set.RestoreNearest(p, cf.Points[1].InstOffset); !errors.Is(err, ErrBadPoint) {
		t.Errorf("restoring the corrupt point: %v, want ErrBadPoint", err)
	}
}

// TestCheckpointBytesIndependentOfPoolHistory: a side-file's bytes
// depend only on the workload, the configuration and the points, not
// on whether BuildCheckpoints ran on a fresh processor or on one
// recycled from the pool after another workload.
func TestCheckpointBytesIndependentOfPoolHistory(t *testing.T) {
	created := telemetry.Default.Counter(`bebop_core_proc_pool_total{outcome="new"}`, "")
	recycled := telemetry.Default.Counter(`bebop_core_proc_pool_total{outcome="reused"}`, "")
	runtime.GC()
	runtime.GC() // two collections empty the processor pool
	n0 := created.Value()
	fresh := encodeFile(t, baselineFile(t, 6_000, 20_000))
	if created.Value() == n0 {
		t.Fatal("the first build ran on a recycled processor")
	}
	gzip, _ := workload.ProfileByName("gzip")
	for attempt := 0; attempt < 10; attempt++ {
		if _, err := core.RunSourceCtx(context.Background(), workload.ProfileSource{Prof: gzip}, 5_000, 20_000, core.Baseline()); err != nil {
			t.Fatal(err)
		}
		r0 := recycled.Value()
		pooled := encodeFile(t, baselineFile(t, 6_000, 20_000))
		if recycled.Value() == r0 {
			continue // the pool lost the processor; try again
		}
		if !bytes.Equal(fresh, pooled) {
			diff := 0
			for i := range min(len(fresh), len(pooled)) {
				if fresh[i] != pooled[i] {
					diff++
				}
			}
			t.Fatalf("side-file built on a recycled processor differs from a fresh build: %d of %d bytes (lengths %d and %d)",
				diff, len(fresh), len(fresh), len(pooled))
		}
		return
	}
	t.Skip("the processor pool never served a recycled processor")
}

// TestRunSampledOverOneSetAnyParallelism: interval workers decode their
// points from one opened set concurrently; the result must not depend
// on how many share it, and must equal a run over the fully loaded
// side-file. Run it under -race.
func TestRunSampledOverOneSetAnyParallelism(t *testing.T) {
	const warmup, insts = 8_000, 24_000
	path := filepath.Join(t.TempDir(), "gcc"+Ext)
	if err := os.WriteFile(path, mkTrace(t, warmup+insts, WriterOptions{}), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewFileSource(path)
	mk := core.EOLEBeBoP("Medium", core.MediumConfig())
	points, name, err := core.BuildCheckpoints(src, mk, 4_000, warmup+insts)
	if err != nil {
		t.Fatal(err)
	}
	ckPath := CheckpointPath(path, name)
	if err := WriteCheckpoints(ckPath, &CheckpointFile{
		TraceName: "gcc", TraceInsts: warmup + insts, ConfigName: name, Points: points,
	}); err != nil {
		t.Fatal(err)
	}
	set, err := OpenCheckpoints(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	loaded, err := LoadCheckpoints(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res pipeline.Result
		st  core.SampleStats
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	run := func(cs core.CheckpointSource, par int) out {
		runtime.GOMAXPROCS(par) // RunSampled starts GOMAXPROCS interval workers
		sp := core.SamplingParams{
			Intervals: 4, IntervalInsts: 1_000, DetailWarmup: 200,
			Checkpoints: cs,
		}
		res, st, err := core.RunSampled(context.Background(), src, warmup, insts, mk, sp)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if st.CheckpointsUsed != sp.Intervals {
			t.Errorf("parallelism %d: %d of %d intervals restored", par, st.CheckpointsUsed, sp.Intervals)
		}
		return out{res, st}
	}
	one, four, ref := run(set, 1), run(set, 4), run(loaded, 1)
	if !reflect.DeepEqual(one, four) {
		t.Errorf("one set, parallelism 1 and 4 differ:\n%+v\n%+v", one, four)
	}
	if !reflect.DeepEqual(one, ref) {
		t.Errorf("the opened set and the loaded file differ:\n%+v\n%+v", one, ref)
	}
}

// FuzzLoadCheckpoints: arbitrary bytes give an error or a valid side-file
// that re-encodes to the same bytes — never a panic, and never an
// allocation beyond a small multiple of the input. Every accepted point
// is then restored into a Baseline_6_60 and an EOLE_4_60/Medium
// processor, and one that restores runs 1K instructions: Restore refuses
// what the tables could never hold, so each gives an error or a clean
// run, never a panic. Run with
// `go test -run '^$' -fuzz FuzzLoadCheckpoints ./internal/trace`.
func FuzzLoadCheckpoints(f *testing.F) {
	valid := encodeFile(f, filledFile(f))
	for _, cut := range []int{0, 4, 6, 30, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(valid)
	for _, name := range []string{"checkpoint-v2.ckpt", "checkpoint-v3.ckpt"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	// Real points: warming passes over a recorded trace.
	path := filepath.Join(f.TempDir(), "gcc"+Ext)
	if err := os.WriteFile(path, mkTrace(f, 2_000, WriterOptions{}), 0o644); err != nil {
		f.Fatal(err)
	}
	mks := []core.ConfigFactory{core.Baseline(), core.EOLEBeBoP("Medium", core.MediumConfig())}
	for _, mk := range mks {
		points, name, err := core.BuildCheckpoints(NewFileSource(path), mk, 1_000, 2_000)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeFile(f, &CheckpointFile{TraceName: "gcc", TraceInsts: 2_000, ConfigName: name, Points: points}))
	}
	gcc, _ := workload.ProfileByName("gcc")
	procs := make([]*pipeline.Processor, len(mks))
	for i, mk := range mks {
		procs[i] = pipeline.New(mk(), nil)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cf, err := readCheckpoints(bytes.NewReader(data), int64(len(data)))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if again := encodeFile(t, cf); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different ones", len(data), len(again))
		}
		for _, ck := range cf.Points {
			for i, p := range procs {
				cfg := mks[i]()
				ck := *ck
				ck.ConfigName = cfg.Name // reach the state, whatever config the bytes name
				p.Reset(cfg, workload.New(gcc, 1_000))
				if p.Restore(&ck) == nil {
					p.RunWarm(0, 1_000_000) // the cycle cap bounds whatever state a fuzzed point restores
				}
			}
		}
	})
}
