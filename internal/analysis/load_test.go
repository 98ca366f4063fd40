package analysis_test

import (
	"strings"
	"testing"

	"bebop/internal/analysis"
)

// repoRoot is where `go list bebop/...` patterns resolve from; the test
// binary runs in internal/analysis, two levels down.
const repoRoot = "../.."

// TestLoadTypechecksRealPackages exercises the production loader path:
// go list + export-data importing + source type-checking of an actual
// repo package.
func TestLoadTypechecksRealPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	pkgs, err := analysis.Load(repoRoot, "bebop/internal/telemetry")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.PkgPath != "bebop/internal/telemetry" {
		t.Fatalf("PkgPath = %q", p.PkgPath)
	}
	if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
		t.Fatalf("package not fully type-checked: %+v", p)
	}
	if p.Types.Scope().Lookup("Counter") == nil {
		t.Errorf("telemetry.Counter not found in type-checked scope")
	}
}

// TestRepoIsLintClean is the self-test the CI lint job relies on: the
// full analyzer suite over the whole module must report nothing.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain over the whole module")
	}
	pkgs, err := analysis.Load(repoRoot, "bebop/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	all := []*analysis.Analyzer{
		analysis.Detlint, analysis.Snaplint,
		analysis.Hotalloc, analysis.Boundarylint,
	}
	diags, err := analysis.RunAnalyzers(all, pkgs, true)
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	if len(diags) > 0 {
		t.Logf("the repo must stay lint-clean; fix the finding or add a justified //bebop:allow")
	}
}

// TestEscapeCheckHotpaths cross-checks every //bebop:hotpath annotation
// against the compiler's real escape analysis.
func TestEscapeCheckHotpaths(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles hot packages with -m")
	}
	pkgs, err := analysis.Load(repoRoot,
		"bebop/internal/pipeline",
		"bebop/internal/telemetry",
		"bebop/internal/trace",
	)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := analysis.CheckEscapes(repoRoot, pkgs)
	if err != nil {
		t.Fatalf("CheckEscapes: %v", err)
	}
	for _, d := range diags {
		if strings.HasPrefix(d.Analyzer, "hotalloc") {
			t.Errorf("escape into a hotpath function: %s", d)
		}
	}
}
