package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers of the simulator as the CPU profile is bucketed. A sample goes
// to the layer of the innermost bebop frame on its stack; standard
// library frames (flate, gob, reflect, net/http …) count for the bebop
// code that called them. Runtime GC and allocation are buckets of their
// own.
const (
	layerServe     = "serve" // bebop-serve's main package, net/http, encoding/json
	layerAdmission = "admission"
	layerSim       = "sim"
	layerEngine    = "engine" // engine + experiments
	layerCore      = "core"
	layerPipeline  = "pipeline" // pipeline + ring
	layerBranch    = "branch"
	layerPredictor = "predictor"
	layerBeBoP     = "bebop" // bebop + specwindow
	layerCache     = "cache" // cache + memdep
	layerWorkload  = "workload"
	layerTrace     = "trace"
	layerGC        = "runtime.gc"
	layerAlloc     = "runtime.alloc"
	layerBench     = "bench" // perfbench's own code
	layerTools     = "tools" // never on a simulation path
	layerOther     = "other" // scheduler, syscalls, idle runtime work

	// layerCaller marks a helper package whose samples count for its
	// caller's layer: isa accessors, util bit tricks and the RNG,
	// telemetry counters and the disarmed fault-injection check are
	// spent on behalf of whichever layer called them.
	layerCaller = ""
)

// packageLayers assigns every package under bebop/ a layer. The
// benchmark's tests fail when a package is missing, so a new package
// must be given a layer before the profile split can be trusted.
var packageLayers = map[string]string{
	"bebop/cmd/bebop-serve":                layerServe,
	"bebop/internal/admission":             layerAdmission,
	"bebop/sim":                            layerSim,
	"bebop/internal/engine":                layerEngine,
	"bebop/internal/experiments":           layerEngine,
	"bebop/internal/core":                  layerCore,
	"bebop/internal/pipeline":              layerPipeline,
	"bebop/internal/ring":                  layerPipeline,
	"bebop/internal/branch":                layerBranch,
	"bebop/internal/predictor":             layerPredictor,
	"bebop/internal/bebop":                 layerBeBoP,
	"bebop/internal/specwindow":            layerBeBoP,
	"bebop/internal/cache":                 layerCache,
	"bebop/internal/memdep":                layerCache,
	"bebop/internal/workload":              layerWorkload,
	"bebop/internal/workload/probe":        layerWorkload,
	"bebop/internal/trace":                 layerTrace,
	"bebop/internal/isa":                   layerCaller,
	"bebop/internal/util":                  layerCaller,
	"bebop/internal/telemetry":             layerCaller,
	"bebop/internal/faultinject":           layerCaller,
	"bebop/internal/cli":                   layerTools,
	"bebop/internal/prof":                  layerTools,
	"bebop/internal/perf":                  layerTools,
	"bebop/internal/analysis":              layerTools,
	"bebop/internal/analysis/analysistest": layerTools,
	"bebop/internal/integration":           layerTools,
}

// gcFrames mark a sample as garbage-collector work wherever they sit on
// the stack (background marking, assists, sweeping, scavenging).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.sweepone", "runtime.deductSweepCredit",
}

// allocFrames mark a sample as allocation work when no GC frame is found.
var allocFrames = []string{"runtime.mallocgc", "runtime.memclrNoHeapPointers"}

// packageOf returns the import path of a profiled function name, e.g.
// "bebop/internal/pipeline.(*Processor).RunWarm" → "bebop/internal/pipeline".
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return head
}

// layerOfStack buckets one sample. frames run from the leaf outwards;
// mainLayer is the layer of package main in the profiled process (the
// server's main package, or perfbench's own).
func layerOfStack(frames []string, mainLayer string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return layerGC
			}
		}
	}
	for _, f := range frames {
		for _, a := range allocFrames {
			if f == a {
				return layerAlloc
			}
		}
	}
	sawHTTP := false
	for _, f := range frames {
		pkg := packageOf(f)
		if pkg == "main" {
			return mainLayer
		}
		if l, ok := packageLayers[pkg]; ok && l != layerCaller {
			return l
		}
		if strings.HasPrefix(pkg, "net/http") || pkg == "encoding/json" {
			sawHTTP = true
		}
	}
	if sawHTTP {
		return layerServe
	}
	return layerOther
}

// profileSplit is a CPU profile bucketed by layer.
type profileSplit struct {
	Total   int64            // sampled CPU nanoseconds
	ByLayer map[string]int64 // layer → nanoseconds
	// Ckpt is the time spent under encoding/gob (and the reflect calls
	// it makes): decoding and encoding checkpoint side-files.
	Ckpt int64
}

// merge adds another profile's samples, taken in another slice of the
// same run.
func (p *profileSplit) merge(q profileSplit) {
	if p.ByLayer == nil {
		p.ByLayer = map[string]int64{}
	}
	p.Total += q.Total
	p.Ckpt += q.Ckpt
	for l, v := range q.ByLayer {
		p.ByLayer[l] += v
	}
}

// share returns a layer's share of the sampled CPU time.
func (p profileSplit) share(layer string) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.ByLayer[layer]) / float64(p.Total)
}

// splitProfile decodes a gzipped pprof CPU profile and buckets its
// samples by layer.
func splitProfile(gz []byte, mainLayer string) (profileSplit, error) {
	prof, err := decodeProfile(gz)
	if err != nil {
		return profileSplit{}, err
	}
	out := profileSplit{ByLayer: map[string]int64{}}
	for _, s := range prof.samples {
		frames := prof.frames(s.locs)
		out.Total += s.value
		out.ByLayer[layerOfStack(frames, mainLayer)] += s.value
		for _, f := range frames {
			if packageOf(f) == "encoding/gob" {
				out.Ckpt += s.value
				break
			}
		}
	}
	return out, nil
}

// The decoder below reads just enough of the pprof protobuf encoding
// (github.com/google/pprof/proto/profile.proto) to attribute samples:
// sample values and location ids, locations' function lines, function
// names and the string table.

type pprofSample struct {
	locs  []uint64
	value int64
}

type pprofProfile struct {
	samples   []pprofSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

// frames returns the function names of a sample's stack, leaf first,
// with inlined frames expanded.
func (p *pprofProfile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locFuncs[l] {
			if si := p.funcNames[fid]; si >= 0 && int(si) < len(p.strings) {
				out = append(out, p.strings[si])
			}
		}
	}
	return out
}

var errProto = errors.New("perfbench: malformed pprof profile")

// pbField is one decoded protobuf field: varint fields carry v, length-
// delimited fields carry b.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(msg []byte) ([]pbField, error) {
	var out []pbField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errProto
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, errProto
			}
			f.v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, errProto
			}
			f.b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, errProto
			}
			f.v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints decodes a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(gz []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	nTypes := 0
	for _, f := range top {
		switch f.num {
		case 1: // sample_type: a CPU profile lists samples/count, cpu/nanoseconds
			nTypes++
		case 2: // sample
			sf, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s pprofSample
			var vals []uint64
			for _, g := range sf {
				switch g.num {
				case 1:
					if s.locs, err = pbUints(g, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(g, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			lf, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fids []uint64
			for _, g := range lf {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					line, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fids = append(fids, h.v)
						}
					}
				}
			}
			p.locFuncs[id] = fids
		case 5: // function
			ff, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			name := int64(-1)
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	if nTypes == 0 {
		return nil, errProto
	}
	return p, nil
}
