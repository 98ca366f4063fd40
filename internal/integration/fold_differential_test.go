package integration

import (
	"reflect"
	"testing"
	"unsafe"

	"bebop/internal/branch"
	"bebop/internal/perf"
	"bebop/internal/pipeline"
	"bebop/internal/workload"
)

// TestIncrementalFoldsBitIdentical is the behavior pin for the folded
// history register refactor: for every Table II profile and every pinned
// perf configuration (the plain baseline and the full BeBoP EOLE stack),
// a run served by the incremental folded registers must produce exactly
// the same pipeline.Result as a run forced onto the from-scratch
// reference fold path — the pre-refactor implementation, reached by
// detaching the register file right after pipeline.New. Bit-identical
// means everything: cycles, IPC, branch and value prediction statistics,
// cache misses.
func TestIncrementalFoldsBitIdentical(t *testing.T) {
	const insts = 6000
	for _, cfg := range perf.Configs() {
		for _, prof := range workload.Profiles() {
			t.Run(cfg.Name+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				run := func(reference bool) pipeline.Result {
					p := pipeline.New(cfg.Mk(), workload.New(prof, insts+insts/2))
					if reference {
						globalHistory(t, p).DisableFolds()
					}
					return p.RunWarm(insts/2, 0)
				}
				fast, ref := run(false), run(true)
				if fast != ref {
					t.Fatalf("incremental folds diverge from reference path:\nfast: %+v\nref:  %+v", fast, ref)
				}
			})
		}
	}
}

// globalHistory returns p's global branch history. The reference fold
// path is a test-only switch, so no pipeline API exposes the history;
// the test reaches the unexported field by reflection and fails loudly
// if the field is renamed or retyped.
func globalHistory(t *testing.T, p *pipeline.Processor) *branch.History {
	t.Helper()
	f := reflect.ValueOf(p).Elem().FieldByName("hist")
	if !f.IsValid() || f.Type() != reflect.TypeOf(branch.History{}) {
		t.Fatal("pipeline.Processor no longer holds its global history in a branch.History field named hist")
	}
	return (*branch.History)(unsafe.Pointer(f.UnsafeAddr()))
}
