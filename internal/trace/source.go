package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bebop/internal/isa"
	"bebop/internal/workload"
)

// Ext is the trace file extension the catalog scanner recognizes.
const Ext = ".bbt"

// FileSource is a workload.Source backed by a recorded .bbt file: every
// Open replays the same bytes, so results are as cacheable as a
// synthetic profile's.
type FileSource struct {
	// Path locates the trace; Workload names it in the catalog
	// (defaults to the file stem when built by NewFileSource).
	Path     string
	Workload string
}

// NewFileSource builds a FileSource named after the file stem
// ("traces/gcc-10k.bbt" → "gcc-10k").
func NewFileSource(path string) FileSource {
	base := filepath.Base(path)
	return FileSource{Path: path, Workload: strings.TrimSuffix(base, Ext)}
}

// Name implements workload.Source.
func (s FileSource) Name() string { return s.Workload }

// Open implements workload.Source: the returned stream is a *Reader
// that stops before instruction maxInsts of the trace, so it also
// implements io.Closer and exposes Err for corruption checks.
func (s FileSource) Open(maxInsts int64) (isa.Stream, error) {
	r, err := OpenFile(s.Path)
	if err != nil {
		return nil, err
	}
	r.SetLimit(maxInsts)
	return r, nil
}

// DirSources scans dir for *.bbt files and returns one FileSource per
// trace, sorted by name. Each file's header is validated up front so a
// corrupt trace fails at catalog build time, not mid-sweep. A missing
// directory is an error; an empty one returns no sources.
func DirSources(dir string) ([]workload.Source, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: scan %s: %w", dir, err)
	}
	var out []workload.Source
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), Ext) {
			continue
		}
		src := NewFileSource(filepath.Join(dir, e.Name()))
		r, err := OpenFile(src.Path)
		if err != nil {
			return nil, err
		}
		r.Close()
		out = append(out, src)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Catalog builds the workload catalog the CLIs run from: the 36
// synthetic Table II profiles plus, when dir is non-empty, every .bbt
// trace found there. A trace whose stem collides with a profile name is
// an error — rename the file rather than silently shadowing the
// generator.
func Catalog(dir string) (*workload.Catalog, error) {
	cat := workload.DefaultCatalog()
	if dir == "" {
		return cat, nil
	}
	srcs, err := DirSources(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range srcs {
		if err := cat.Add(s); err != nil {
			return nil, fmt.Errorf("%w (trace %s collides with a synthetic profile; rename the file)",
				err, s.(FileSource).Path)
		}
	}
	return cat, nil
}
