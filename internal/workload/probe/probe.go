// Package probe generates adversarial microbenchmark streams whose
// measured prediction cliffs are fixed by predictor *geometry*, not by
// workload statistics. Each family sweeps one pressure axis — pattern
// period against TAGE history length, static branch count against
// tagged capacity, stride magnitude against partial-stride width, block
// count against last-value-table reach, µ-ops per fetch block against
// BeBoP's NPred — and is built so that the measured accuracy curve has
// a cliff exactly where the configured geometry says it must. The
// geometry oracle suite (internal/integration) turns those cliffs into
// executable assertions; experiments.Runner.ProbeSweep and ProbeCurves
// (bebop-sweep -exp probe) render them as accuracy-vs-pressure curves.
//
// Probe streams are deterministic and seed-stable: a probe source is
// fully identified by its name "probe/<family>/<pressure>", successive
// Opens yield bit-identical streams, and the per-family RNG seed is
// derived from the family name, so results are cacheable by workload
// name like any other catalog entry.
package probe

import (
	"fmt"
	"strconv"
	"strings"

	"bebop/internal/isa"
	"bebop/internal/workload"
)

// NamePrefix starts every probe workload name.
const NamePrefix = "probe/"

// Family is one probe axis: a parameterized generator of adversarial
// streams whose difficulty is controlled by a single integer pressure
// knob (the Axis), plus the default grid the sweep runner and the
// full-resolution CI step evaluate.
type Family struct {
	// Name identifies the family, e.g. "tage-history".
	Name string
	// Axis names the pressure knob, e.g. "period" or "blocks".
	Axis string
	// Grid is the default pressure sweep, in increasing order.
	Grid []int
	// build compiles the static probe program for one pressure point.
	build func(pressure int) (*program, error)
}

// Families returns the probe families in canonical order.
func Families() []Family {
	return []Family{
		{
			Name:  "tage-history",
			Axis:  "period",
			Grid:  []int{4, 8, 16, 24, 32, 48, 64, 96, 128, 160},
			build: buildTAGEHistory,
		},
		{
			Name:  "tage-capacity",
			Axis:  "branches",
			Grid:  []int{2, 8, 32, 64, 128, 256, 512, 1024},
			build: buildTAGECapacity,
		},
		{
			Name:  "tage-dilution",
			Axis:  "decoys",
			Grid:  []int{0, 1, 2, 4, 8, 16, 32, 64},
			build: buildTAGEDilution,
		},
		{
			Name:  "vp-stride",
			Axis:  "stride",
			Grid:  []int{1, 16, 64, 120, 240, 4096, 1 << 20},
			build: buildVPStride,
		},
		{
			Name:  "vp-history",
			Axis:  "period",
			Grid:  []int{2, 4, 8, 16, 24, 32, 48, 64, 96},
			build: buildVPHistory,
		},
		{
			Name:  "vp-capacity",
			Axis:  "blocks",
			Grid:  []int{16, 64, 256, 1024, 4096},
			build: buildVPCapacity,
		},
		{
			Name:  "vp-lvs",
			Axis:  "run",
			Grid:  []int{8, 32, 128, 512, 2048, 8192},
			build: buildVPLVS,
		},
		{
			Name:  "bebop-block",
			Axis:  "uops",
			Grid:  []int{1, 2, 3, 4, 5, 6, 7, 8},
			build: buildBeBoPBlock,
		},
	}
}

// FamilyNames lists the family names in canonical order.
func FamilyNames() []string {
	fams := Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Name
	}
	return out
}

// Lookup returns the named family, or false.
func Lookup(name string) (Family, bool) {
	for _, f := range Families() {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Source returns the workload source for this family at one pressure
// point. The source's name is "probe/<family>/<pressure>".
func (f Family) Source(pressure int) (workload.Source, error) {
	prog, err := f.build(pressure)
	if err != nil {
		return nil, fmt.Errorf("probe: %s: %w", f.Name, err)
	}
	return source{name: SourceName(f.Name, pressure), prog: prog}, nil
}

// IterationInsts reports how many dynamic instructions one loop
// iteration of this family at the given pressure executes. Probe control
// flow is a straight loop (every conditional branch targets its own
// fall-through), so each static instruction runs exactly once per
// iteration — the oracle suite uses this to convert measured totals into
// per-iteration and per-period rates.
func (f Family) IterationInsts(pressure int) (int, error) {
	prog, err := f.build(pressure)
	if err != nil {
		return 0, fmt.Errorf("probe: %s: %w", f.Name, err)
	}
	return len(prog.insts), nil
}

// SourceName formats the canonical probe workload name.
func SourceName(family string, pressure int) string {
	return NamePrefix + family + "/" + strconv.Itoa(pressure)
}

// IsProbeName reports whether a workload name selects a probe stream.
func IsProbeName(name string) bool { return strings.HasPrefix(name, NamePrefix) }

// FromName resolves "probe/<family>/<pressure>" to a source. Unknown
// families and malformed pressures are errors naming the valid set, so
// front ends (CLI flags, REST specs) fail with an actionable message.
func FromName(name string) (workload.Source, error) {
	rest, ok := strings.CutPrefix(name, NamePrefix)
	if !ok {
		return nil, fmt.Errorf("probe: %q is not a probe workload (want %s<family>/<pressure>)", name, NamePrefix)
	}
	fam, pres, ok := strings.Cut(rest, "/")
	if !ok {
		return nil, fmt.Errorf("probe: %q is missing a pressure value (want %s<family>/<pressure>, families: %s)",
			name, NamePrefix, strings.Join(FamilyNames(), ", "))
	}
	f, found := Lookup(fam)
	if !found {
		return nil, fmt.Errorf("probe: unknown family %q in %q (families: %s)",
			fam, name, strings.Join(FamilyNames(), ", "))
	}
	p, err := strconv.Atoi(pres)
	if err != nil {
		return nil, fmt.Errorf("probe: bad pressure %q in %q: want an integer", pres, name)
	}
	return f.Source(p)
}

// source adapts one compiled probe program to workload.Source.
type source struct {
	name string
	prog *program
}

func (s source) Name() string { return s.name }

func (s source) Open(maxInsts int64) (isa.Stream, error) {
	return s.prog.open(maxInsts), nil
}
