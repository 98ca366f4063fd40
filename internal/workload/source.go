package workload

import (
	"fmt"

	"bebop/internal/isa"
)

// Source is a named workload: anything that can open fresh deterministic
// dynamic instruction streams. It decouples *what instructions flow
// through the front end* from *how they were produced*: the synthetic
// Table II generators and recorded .bbt traces (internal/trace) both
// implement it, so core, the engine jobs and the experiment sweeps run
// either without knowing the difference.
type Source interface {
	// Name identifies the workload inside a Catalog.
	Name() string
	// Open returns a fresh stream over at most maxInsts dynamic
	// instructions (maxInsts < 0 = unbounded, if the source supports it).
	// Successive Opens must yield identical streams: determinism is what
	// makes engine results cacheable by (configuration, workload name).
	// If the returned stream implements io.Closer, the caller closes it
	// when the run finishes.
	Open(maxInsts int64) (isa.Stream, error)
}

// ProfileSource adapts a synthetic Table II profile to Source.
type ProfileSource struct {
	Prof Profile
}

// Name implements Source.
func (s ProfileSource) Name() string { return s.Prof.Name }

// Open implements Source.
func (s ProfileSource) Open(maxInsts int64) (isa.Stream, error) {
	return New(s.Prof, maxInsts), nil
}

// Catalog is an ordered, name-keyed collection of workload sources: the
// 36 synthetic profiles, recorded traces scanned from a -trace-dir, or
// any mix. Lookup order is insertion order, so the synthetic suite stays
// in Table II order and traces follow.
type Catalog struct {
	names  []string
	byName map[string]Source
}

// NewCatalog builds an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]Source)}
}

// DefaultCatalog builds a catalog of the 36 Table II profiles.
func DefaultCatalog() *Catalog {
	c := NewCatalog()
	for _, p := range Profiles() {
		c.Add(ProfileSource{Prof: p})
	}
	return c
}

// Add registers a source. Names must be unique: a duplicate is an error,
// so a trace file cannot silently shadow a synthetic profile (rename the
// file instead).
func (c *Catalog) Add(src Source) error {
	name := src.Name()
	if _, dup := c.byName[name]; dup {
		return fmt.Errorf("workload: duplicate workload name %q", name)
	}
	c.byName[name] = src
	c.names = append(c.names, name)
	return nil
}

// Lookup returns the named source, or false.
func (c *Catalog) Lookup(name string) (Source, bool) {
	s, ok := c.byName[name]
	return s, ok
}

// Names lists the catalog's workload names in insertion order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Len reports the number of registered sources.
func (c *Catalog) Len() int { return len(c.names) }
