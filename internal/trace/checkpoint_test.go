package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/pipeline"
	"bebop/internal/specwindow"
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
		if cf.Version != checkpointVersion || cf.TraceName != "gcc" || cf.TraceInsts != insts || cf.ConfigName != name {
			t.Errorf("%s: identity came back as %+v", name, cf)
		}
		if len(cf.Points) != len(points) {
			t.Fatalf("%s: loaded %d points, wrote %d", name, len(cf.Points), len(points))
		}
		for i, want := range points {
			nilEmptySlices(reflect.ValueOf(want).Elem())
			if !reflect.DeepEqual(want, cf.Points[i]) {
				t.Errorf("%s: point %d (instruction %d) differs after the round trip", name, i, want.InstOffset)
			}
		}
	}
}

// nilEmptySlices replaces every empty slice reachable from v with nil:
// the side-file stores only a length, and an empty slice loads as nil.
func nilEmptySlices(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := range v.Len() {
			nilEmptySlices(v.Index(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			nilEmptySlices(v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			nilEmptySlices(v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			nilEmptySlices(v.Elem())
		}
	}
}

// fillDistinct sets everything reachable from v to non-zero values that
// differ from one another (bools are simply true): integers get every
// byte set, signed ones often negative, and each slice three elements.
// The interface field gets a filled payload of type payload. It fails
// the test on an unexported field or a kind the side-file cannot carry,
// so a new snapshot field the codec would refuse fails here, not in a
// user's run.
func fillDistinct(t testing.TB, v reflect.Value, at string, payload reflect.Type, next *uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(int64(*next*0x9E3779B97F4A7C15)>>(64-v.Type().Bits()) | 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(*next*0x9E3779B97F4A7C15>>(64-v.Type().Bits()) | 1)
	case reflect.String:
		*next++
		v.SetString(fmt.Sprintf("%s#%d", at, *next))
	case reflect.Array:
		for i := range v.Len() {
			fillDistinct(t, v.Index(i), fmt.Sprintf("%s[%d]", at, i), payload, next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := range v.Len() {
			fillDistinct(t, v.Index(i), fmt.Sprintf("%s[%d]", at, i), payload, next)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported: the side-file codec cannot carry it", at, f.Name)
			}
			fillDistinct(t, v.Field(i), at+"."+f.Name, payload, next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), at, payload, next)
	case reflect.Interface:
		p := reflect.New(payload).Elem()
		fillDistinct(t, p, at, payload, next)
		v.Set(p)
	default:
		t.Fatalf("%s has kind %s, which the side-file codec cannot carry", at, v.Kind())
	}
}

// filledFile is a valid side-file whose first point has every field set
// by fillDistinct, carrying the given VP payload type, and whose second
// point has every pointer, slice and the payload absent.
func filledFile(t testing.TB, payload reflect.Type) *CheckpointFile {
	t.Helper()
	var next uint64
	full := new(pipeline.Checkpoint)
	fillDistinct(t, reflect.ValueOf(full).Elem(), "Checkpoint", payload, &next)
	full.InstOffset, full.ConfigName = 1, "cfg"
	sparse := &pipeline.Checkpoint{InstOffset: 2, ConfigName: "cfg"}
	return &CheckpointFile{TraceName: "trace", TraceInsts: 10, ConfigName: "cfg",
		Points: []*pipeline.Checkpoint{full, sparse}}
}

// encodeFile is the side-file bytes WriteCheckpoints would write for cf.
func encodeFile(t testing.TB, cf *CheckpointFile) []byte {
	t.Helper()
	fp, err := checkpointLayout()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e := ckptEncoder{w: bufio.NewWriter(&buf)}
	if err := e.encode(cf, fp); err != nil {
		t.Fatal(err)
	}
	if err := e.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointCodecCompleteness fills every exported field of
// pipeline.Checkpoint and of each registered VP payload and requires an
// exact round trip through the side-file.
func TestCheckpointCodecCompleteness(t *testing.T) {
	if len(pipeline.VPPayloads()) == 0 {
		t.Fatal("no VP payload registered; the BeBoP snapshot registers at init")
	}
	for _, p := range pipeline.VPPayloads() {
		cf := filledFile(t, p.Type)
		path := filepath.Join(t.TempDir(), "filled"+CheckpointExt)
		if err := WriteCheckpoints(path, cf); err != nil {
			t.Fatalf("%s: WriteCheckpoints: %v", p.Type, err)
		}
		got, err := LoadCheckpoints(path)
		if err != nil {
			t.Fatalf("%s: LoadCheckpoints: %v", p.Type, err)
		}
		if !reflect.DeepEqual(cf, got) {
			t.Errorf("%s: filled side-file does not round-trip:\nwrote %+v\nread  %+v", p.Type, cf.Points[0], got.Points[0])
		}
	}
}

// TestCheckpointLayoutRefusesWhatItCannotEncode: the layout walk, which
// both directions run before touching a file, names the offending field.
func TestCheckpointLayoutRefusesWhatItCannotEncode(t *testing.T) {
	type node struct{ Next *node }
	for _, tc := range []struct {
		name string
		typ  reflect.Type
	}{
		{"unexported field", reflect.TypeFor[struct{ A, b int }]()},
		{"float", reflect.TypeFor[struct{ F float64 }]()},
		{"map", reflect.TypeFor[struct{ M map[int]int }]()},
		{"interface with methods", reflect.TypeFor[struct{ E error }]()},
		{"recursive struct", reflect.TypeFor[node]()},
	} {
		if err := describeLayout(new(bytes.Buffer), tc.typ, nil); err == nil {
			t.Errorf("%s: layout accepted", tc.name)
		}
	}
	if _, err := checkpointLayout(); err != nil {
		t.Fatalf("pipeline.Checkpoint layout refused: %v", err)
	}
}

// TestLoadCheckpointsRejects: every way a side-file can be wrong fails
// the load with an error that is not Transient, so sim rebuilds the
// file instead of retrying.
func TestLoadCheckpointsRejects(t *testing.T) {
	payload := pipeline.VPPayloads()[0].Type
	valid := encodeFile(t, filledFile(t, payload))

	// The payload tag is the first byte where the file with the payload
	// and the file without it differ; a bool is found the same way.
	firstDiff := func(edit func(*pipeline.Checkpoint)) int {
		cf := filledFile(t, payload)
		edit(cf.Points[0])
		at := 0
		for other := encodeFile(t, cf); valid[at] == other[at]; at++ {
		}
		return at
	}
	tagAt := firstDiff(func(ck *pipeline.Checkpoint) { ck.VP = nil })
	boolAt := firstDiff(func(ck *pipeline.Checkpoint) { ck.BTB.Valid[0] = false })

	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	// Header offsets: magic 0, version 4, fingerprint 6, trace-name
	// length 14; with filledFile's identity the point count is at 46.
	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), valid...)
		copy(out[at:], b)
		return out
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"gob v1", v1},
		{"bad magic", patch(0, 'X')},
		{"bad version", patch(4, 1, 0)},
		{"bad fingerprint", patch(6, valid[6]^0xFF)},
		{"unknown payload tag", patch(tagAt, 0xEE)},
		{"bool byte other than 0 or 1", patch(boolAt, 2)},
		{"name longer than the file", patch(14, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)},
		{"more points than the file holds", patch(46, 0, 0, 0, 0, 0, 1)},
		{"truncated", valid[:len(valid)-1]},
		{"truncated header", valid[:5]},
		{"empty", nil},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
	} {
		path := filepath.Join(dir, tc.name+CheckpointExt)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoints(path)
		if err == nil {
			t.Errorf("%s: loaded", tc.name)
		} else if engine.IsTransient(err) {
			t.Errorf("%s: error %v is Transient", tc.name, err)
		}
	}
	if _, err := readCheckpoints(bytes.NewReader(valid), int64(len(valid))); err != nil {
		t.Fatalf("the unpatched file does not load: %v", err)
	}
}

// FuzzLoadCheckpoints: arbitrary bytes give an error or a valid side-file
// that re-encodes to the same bytes — never a panic, and never an
// allocation beyond a small multiple of the input (an empty slice is 8
// bytes on disk and a 24-byte header in memory). Run with
// `go test -run '^$' -fuzz FuzzLoadCheckpoints ./internal/trace`.
func FuzzLoadCheckpoints(f *testing.F) {
	valid := encodeFile(f, filledFile(f, pipeline.VPPayloads()[0].Type))
	for _, cut := range []int{0, 4, 14, 30, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(valid)
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v1.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	if _, err := checkpointLayout(); err != nil { // computed once, outside the measurement
		f.Fatal(err)
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
	})
}
