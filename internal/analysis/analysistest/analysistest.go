// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against `// want "re"`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// top of the repo's own analysis substrate.
//
// Fixture layout: <root>/<import/path>/<files>.go. Imports between
// fixture packages resolve inside the tree first (so fixtures can stub
// bebop/internal/... and bebop/sim), and fall back to the real
// toolchain's export data for the standard library.
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bebop/internal/analysis"
)

// Run loads each fixture package and applies the analyzer (bypassing
// its Match filter: fixtures always run), then enforces the // want
// expectations in the fixture sources.
func Run(t *testing.T, root string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	ld := &fixtureLoader{
		root: absRoot,
		fset: token.NewFileSet(),
		pkgs: map[string]*analysis.Package{},
	}
	ld.fallback = importer.ForCompiler(ld.fset, "gc", ld.lookupExport)

	var loaded []*analysis.Package
	for _, path := range pkgPaths {
		lp, err := ld.load(path)
		if err != nil {
			t.Fatalf("analysistest: loading fixture %s: %v", path, err)
		}
		loaded = append(loaded, lp)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Analyzer{a}, loaded, false)
	if err != nil {
		t.Fatalf("analysistest: running %s: %v", a.Name, err)
	}
	checkExpectations(t, loaded, diags)
}

type fixtureLoader struct {
	root     string
	fset     *token.FileSet
	pkgs     map[string]*analysis.Package
	loading  []string
	exports  map[string]string
	fallback types.Importer
}

// Import implements types.Importer: fixture-tree packages first, the
// real toolchain's export data otherwise.
func (ld *fixtureLoader) Import(path string) (*types.Package, error) {
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		lp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return lp.Types, nil
	}
	return ld.fallback.Import(path)
}

// lookupExport resolves an external import to its export-data file,
// shelling out to `go list -export` on first use.
func (ld *fixtureLoader) lookupExport(path string) (io.ReadCloser, error) {
	if f, ok := ld.exports[path]; ok {
		return os.Open(f)
	}
	entries, err := analysis.ListExports(".", path)
	if err != nil {
		return nil, err
	}
	if ld.exports == nil {
		ld.exports = map[string]string{}
	}
	for p, f := range entries {
		ld.exports[p] = f
	}
	f, ok := ld.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

func (ld *fixtureLoader) load(path string) (*analysis.Package, error) {
	if lp, ok := ld.pkgs[path]; ok {
		return lp, nil
	}
	for _, in := range ld.loading {
		if in == path {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
	}
	ld.loading = append(ld.loading, path)
	defer func() { ld.loading = ld.loading[:len(ld.loading)-1] }()

	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	names, err := fixtureGoFiles(dir)
	if err != nil {
		return nil, err
	}
	lp, err := analysis.TypeCheck(ld.fset, ld, path, dir, names)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = lp
	return lp, nil
}

func fixtureGoFiles(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".go") {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return names, nil
}

// expectation is one `// want "re"` entry.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

func collectExpectations(t *testing.T, lp *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := lp.Fset.Position(c.Pos())
				for _, raw := range splitQuoted(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return out
}

// splitQuoted extracts the double-quoted and backtick-quoted strings of
// a want clause.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexAny(s, "\"`")
		if i < 0 {
			return out
		}
		s = s[i:]
		if s[0] == '`' {
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
			continue
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end >= len(s) {
			return out
		}
		if q, err := strconv.Unquote(s[:end+1]); err == nil {
			out = append(out, q)
		}
		s = s[end+1:]
	}
}

func checkExpectations(t *testing.T, loaded []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, lp := range loaded {
		wants = append(wants, collectExpectations(t, lp)...)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
