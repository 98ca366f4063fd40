package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"bebop/internal/faultinject"
)

// TestPanicNotCachedAndCarriesStack: a panicking job runs once and
// fails with a *PanicError carrying the stack, the cache does not
// retain the poisoned entry, and a later submission re-executes.
func TestPanicNotCachedAndCarriesStack(t *testing.T) {
	var calls atomic.Int32
	e := New[int](Options{Workers: 2})
	job := Job[int]{
		Key: "cfg", Bench: "b",
		Run: func(ctx context.Context) (int, error) {
			if calls.Add(1) == 1 {
				panic(fmt.Errorf("boom %d", 42))
			}
			return 11, nil
		},
	}
	_, err := runOne(context.Background(), e, job)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("first run error = %v, want *PanicError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("panicking job ran %d times, want 1", got)
	}
	if !strings.Contains(pe.Error(), "boom 42") {
		t.Fatalf("PanicError lost the panic value: %v", pe)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("PanicError has no usable stack: %q", pe.Stack)
	}
	if got := e.Stats().Entries; got != 0 {
		t.Fatalf("cache retained %d entries after a panic", got)
	}

	// The poisoned result was not cached: resubmission re-executes.
	res, err := runOne(context.Background(), e, job)
	if err != nil || res.Value != 11 {
		t.Fatalf("resubmission = (%v, %v), want (11, nil)", res.Value, err)
	}
	if res.Cached {
		t.Fatal("resubmission served a cached panicked result")
	}
}

// TestEngineWorkerFaultPoint: an injected panic at the engine.worker
// fault point is recovered through the same path as a real one: the
// job fails with a *PanicError before its body runs, and a resubmission
// runs the body once and succeeds.
func TestEngineWorkerFaultPoint(t *testing.T) {
	faultinject.Default.Reset()
	t.Cleanup(faultinject.Default.Reset)
	faultinject.Default.Arm("engine.worker", faultinject.Plan{
		Mode: faultinject.ModePanic, Nth: 1,
	})

	var calls atomic.Int32
	e := New[int](Options{Workers: 1})
	job := Job[int]{
		Key: "cfg", Bench: "b",
		Run: func(ctx context.Context) (int, error) {
			calls.Add(1)
			return 5, nil
		},
	}
	_, err := runOne(context.Background(), e, job)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run under an injected panic: error = %v, want *PanicError", err)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("job body ran %d times under the injected panic, want 0", got)
	}

	res, err := runOne(context.Background(), e, job)
	if err != nil || res.Value != 5 {
		t.Fatalf("resubmission = (%v, %v), want (5, nil)", res.Value, err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("job body ran %d times, want 1", got)
	}
}
