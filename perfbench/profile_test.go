package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryPackageHasALayer walks the module's internal tree: a package
// the profile split cannot place would silently land in "other", so a
// new package fails here until packageLayers assigns it a layer.
func TestEveryPackageHasALayer(t *testing.T) {
	found := map[string]bool{}
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		found["bebop/"+filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) < 20 {
		t.Fatalf("found only %d packages under ../internal: %v", len(found), found)
	}
	for pkg := range found {
		if _, ok := packageLayers[pkg]; !ok {
			t.Errorf("package %s has no layer in packageLayers", pkg)
		}
	}
	for pkg := range packageLayers {
		if strings.HasPrefix(pkg, "bebop/internal/") && !found[pkg] {
			t.Errorf("packageLayers names %s, which does not exist", pkg)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bebop/internal/pipeline.(*Processor).RunWarm":                       "bebop/internal/pipeline",
		"bebop/internal/engine.(*Engine[go.shape.struct { X int }]).resolve": "bebop/internal/engine",
		"bebop/internal/engine.runGuarded[go.shape.struct {}]":               "bebop/internal/engine",
		"bebop/internal/core.RunSampled.func1":                               "bebop/internal/core",
		"bebop/internal/workload/probe.FromName":                             "bebop/internal/workload/probe",
		"bebop/sim.Run":                                                      "bebop/sim",
		"compress/flate.(*decompressor).huffSym":                             "compress/flate",
		"runtime.mallocgc":                                                   "runtime",
		"main.(*server).runsV1":                                              "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		frames []string // leaf first
		main   string
		want   string
	}{
		{[]string{"bebop/internal/pipeline.(*Processor).issueStage", "bebop/internal/core.runDetailed"}, layerBench, layerPipeline},
		// Standard library and helper packages count for their bebop caller.
		{[]string{"compress/flate.(*decompressor).huffSym", "bebop/internal/trace.(*Reader).nextFrame"}, layerBench, layerTrace},
		{[]string{"reflect.Value.Field", "encoding/gob.(*Decoder).Decode", "bebop/internal/trace.LoadCheckpoints"}, layerBench, layerTrace},
		{[]string{"bebop/internal/util.(*RNG).Next", "bebop/internal/workload.(*Generator).Next"}, layerBench, layerWorkload},
		{[]string{"bebop/internal/ring.(*Ring[...]).Push", "bebop/internal/pipeline.(*Processor).dispatchStage"}, layerBench, layerPipeline},
		{[]string{"bebop/internal/specwindow.(*Window).Probe", "bebop/internal/bebop.(*Predictor).Predict"}, layerBench, layerBeBoP},
		{[]string{"bebop/internal/memdep.(*StoreSets).Lookup"}, layerBench, layerCache},
		// Runtime work has buckets of its own, GC first.
		{[]string{"runtime.memmove", "runtime.mallocgc", "bebop/internal/pipeline.New"}, layerBench, layerAlloc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerBench, layerGC},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc"}, layerBench, layerGC},
		// The HTTP path with no simulator frame is the serve layer.
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, layerServe, layerServe},
		{[]string{"encoding/json.(*encodeState).marshal", "main.writeJSON"}, layerServe, layerServe},
		{[]string{"main.loop.func1"}, layerBench, layerBench},
		{[]string{"runtime.futex", "runtime.schedule"}, layerBench, layerOther},
	} {
		if got := layerOfStack(c.frames, c.main); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// pbWriter builds protobuf messages for the decoder test.
type pbWriter struct{ bytes.Buffer }

func (w *pbWriter) varint(field int, v uint64) {
	w.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	w.Write(binary.AppendUvarint(nil, v))
}

func (w *pbWriter) bytesField(field int, b []byte) {
	w.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	w.Write(binary.AppendUvarint(nil, uint64(len(b))))
	w.Write(b)
}

func (w *pbWriter) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	w.bytesField(field, b)
}

func TestSplitProfileDecodesPprof(t *testing.T) {
	var p pbWriter
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"bebop/internal/pipeline.(*Processor).RunWarm", "compress/flate.(*decompressor).nextBlock",
		"bebop/internal/trace.(*Reader).Next", "encoding/gob.(*Decoder).Decode", "bebop/internal/trace.LoadCheckpoints"}
	for _, st := range []struct{ typ, unit uint64 }{{1, 2}, {3, 4}} {
		var vt pbWriter
		vt.varint(1, st.typ)
		vt.varint(2, st.unit)
		p.bytesField(1, vt.Bytes())
	}
	sample := func(value uint64, locs ...uint64) {
		var s pbWriter
		if len(locs) > 2 {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l) // unpacked, as runtime/pprof writes short lists
			}
		}
		s.packed(2, 1, value)
		p.bytesField(2, s.Bytes())
	}
	sample(600, 1)    // pipeline
	sample(300, 2, 3) // flate under trace
	sample(100, 4, 5) // gob under trace, with an inlined pair in location 4
	location := func(id uint64, funcs ...uint64) {
		var l pbWriter
		l.varint(1, id)
		for _, f := range funcs {
			var line pbWriter
			line.varint(1, f)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	location(1, 1)
	location(2, 2)
	location(3, 3)
	location(4, 4, 4) // gob.Decode inlined into itself: two lines
	location(5, 5)
	for id, name := range []uint64{5, 6, 7, 8, 9} {
		var f pbWriter
		f.varint(1, uint64(id+1))
		f.varint(2, name)
		p.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	split, err := splitProfile(gz.Bytes(), layerBench)
	if err != nil {
		t.Fatal(err)
	}
	if split.Total != 1000 {
		t.Fatalf("total = %d, want 1000", split.Total)
	}
	if got := split.share(layerPipeline); got != 0.6 {
		t.Errorf("pipeline share = %v, want 0.6", got)
	}
	if got := split.share(layerTrace); got != 0.4 {
		t.Errorf("trace share = %v, want 0.4", got)
	}
	if split.Ckpt != 100 {
		t.Errorf("checkpoint (gob) time = %d, want 100", split.Ckpt)
	}
	if _, err := splitProfile([]byte("not a profile"), layerBench); err == nil {
		t.Error("garbage decoded as a profile")
	}
}
