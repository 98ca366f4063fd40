package sim

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"bebop/internal/workload/probe"
)

// FuzzRunSpecValidate drives arbitrary JSON through the public spec
// pipeline — DecodeRunSpec then Validate — and checks the three
// contracts every front end (CLI -spec files, POST /v1/runs bodies)
// relies on:
//
//  1. no input panics: malformed JSON and nonsense specs fail with
//     errors, never crashes;
//  2. normalization is idempotent: a validated spec is a fixed point of
//     Validate, so re-validating a stored spec never drifts;
//  3. accepted specs round-trip through JSON unchanged, so a normalized
//     spec written to disk (or echoed in a Report) replays exactly;
//  4. an accepted spec with an inline profile, a probe workload or a
//     custom geometry runs: re-validated at a 2K-instruction budget and
//     run, it may fail with an error (a missing trace), but never
//     panics, not even into core's panic guard.
func FuzzRunSpecValidate(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"workload":"swim"}`,
		`{"workload":"swim","config":"EOLE/Medium","insts":5000}`,
		`{"workload":"probe/vp-stride/16","config":"eole-bebop","predictor":"Medium"}`,
		`{"workload":"probe/nope/16"}`,
		`{"trace":"x.bbt","config":"baseline"}`,
		`{"profile":{"Name":"p"}}`,
		`{"profile":{"Name":"p","NumLoops":1,"LoopBodyMin":8,"LoopBodyMax":8,"IterMin":2,"IterMax":2},"insts":3000}`,
		`{"profile":{"Name":"p","NumLoops":2,"LoopBodyMin":4,"LoopBodyMax":30,"IterMin":1,"IterMax":9,"DepDepth":3,"FootprintLog2":63,"HistEntropyLog2":63,"LoadImmFrac":0.5,"CondBrFrac":0.2}}`,
		`{"workload":"probe/tage-capacity/65536"}`,
		`{"workload":"probe/vp-history/65537"}`,
		`{"workload":"swim","bebop":{"npred":8,"base_entries":128,"tagged_entries":65536,"stride_bits":64,"window_size":-1}}`,
		`{"workload":"swim","bebop":{"npred":6,"base_entries":100,"tagged_entries":64,"stride_bits":8}}`,
		`{"workload":"swim","bebop":{"npred":6,"base_entries":64,"tagged_entries":64,"stride_bits":8,"window_size":32}}`,
		`{"workload":"swim","config":"baseline-vp/VTAGE","warmup":0}`,
		`{"workload":"swim","insts":-3}`,
		`{"schema_version":99,"workload":"swim"}`,
		`{"workload":"swim","trace":"x.bbt"}`,
		`{"workload":"swim","trace_dir":"probably/not/a/dir"}`,
		`not json at all`,
		`{"workload":"swim","instz":5}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob string) {
		spec, err := DecodeRunSpec(strings.NewReader(blob))
		if err != nil {
			return // malformed input must fail cleanly, nothing more
		}
		// Hermeticity: Validate scans TraceDir to build the workload
		// catalog. Point fuzz-chosen paths at an empty temp directory so
		// the fuzzer neither reads nor depends on the host filesystem.
		if spec.TraceDir != "" {
			spec.TraceDir = t.TempDir()
		}
		norm, err := spec.Validate()
		if err != nil {
			return // rejected specs only need to reject gracefully
		}
		again, err := norm.Validate()
		if err != nil {
			t.Fatalf("validated spec rejected on re-validation: %v\nspec: %+v", err, norm)
		}
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("Validate is not idempotent:\n1: %+v\n2: %+v", norm, again)
		}
		out, err := norm.JSON()
		if err != nil {
			t.Fatalf("validated spec does not marshal: %v\nspec: %+v", err, norm)
		}
		decoded, err := DecodeRunSpec(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("validated spec does not decode back: %v\njson: %s", err, out)
		}
		if !reflect.DeepEqual(norm, decoded) {
			t.Fatalf("JSON round trip changed the spec:\nbefore: %+v\nafter:  %+v", norm, decoded)
		}
		if norm.Profile == nil && norm.BeBoP == nil && !probe.IsProbeName(norm.Workload) {
			return
		}
		small := norm
		small.Insts, small.Warmup, small.Sampling = 2_000, nil, nil
		if small, err = small.Validate(); err != nil {
			t.Fatalf("accepted spec refused at a 2K-instruction budget: %v\nspec: %+v", err, norm)
		}
		if _, err := Run(context.Background(), small); err != nil && strings.Contains(err.Error(), "panicked") {
			t.Fatalf("accepted spec panicked: %v\nspec: %+v", err, small)
		}
	})
}
