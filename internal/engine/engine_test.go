package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// constJob returns v for (key, bench) immediately.
func constJob(key, bench string, v int) Job[int] {
	return Job[int]{Key: key, Bench: bench, Run: func(context.Context) (int, error) { return v, nil }}
}

// runOne schedules a single job as a batch of one.
func runOne(ctx context.Context, e *Engine[int], job Job[int]) (JobResult[int], error) {
	rs, err := e.RunBatch(ctx, []Job[int]{job})
	return rs[0], err
}

func TestDistinctKeysCacheSeparately(t *testing.T) {
	e := New[int](Options{Workers: 4})
	var jobs []Job[int]
	for i := 0; i < 256; i++ {
		jobs = append(jobs, constJob(fmt.Sprintf("cfg%d", i), "bench", i))
	}
	if _, err := e.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Entries != 256 {
		t.Fatalf("entries = %d, want 256", st.Entries)
	}
}

func TestSeparatorKeysDoNotCollide(t *testing.T) {
	e := New[int](Options{Workers: 2})
	rs, err := e.RunBatch(context.Background(), []Job[int]{
		constJob("a", "b/c", 1),
		constJob("a/b", "c", 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Value != 1 || rs[1].Value != 2 {
		t.Fatalf("keys collided: %+v", rs)
	}
}

func TestWorkerPoolBounded(t *testing.T) {
	const workers = 3
	e := New[int](Options{Workers: workers})
	var cur, peak atomic.Int64
	var jobs []Job[int]
	for i := 0; i < 24; i++ {
		i := i
		jobs = append(jobs, Job[int]{Key: fmt.Sprint(i), Bench: "b", Run: func(context.Context) (int, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return i, nil
		}})
	}
	rs, err := e.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent runs, pool bounds %d", p, workers)
	}
	// Deterministic reduction: output order is submission order.
	for i, r := range rs {
		if r.Value != i {
			t.Fatalf("result %d = %d; order not deterministic", i, r.Value)
		}
	}
}

func TestCancellation(t *testing.T) {
	e := New[int](Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var startOnce sync.Once
	var jobs []Job[int]
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job[int]{Key: fmt.Sprint(i), Bench: "b", Run: func(ctx context.Context) (int, error) {
			// With one worker, whichever job claims the slot first signals;
			// the rest stay queued on the pool.
			startOnce.Do(func() { close(started) })
			<-ctx.Done()
			return 0, ctx.Err()
		}})
	}
	done := make(chan struct{})
	var rs []JobResult[int]
	var err error
	go func() {
		rs, err = e.RunBatch(ctx, jobs)
		close(done)
	}()
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunBatch did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range rs {
		if r.Err == nil {
			t.Fatalf("job %s finished despite cancellation", r.Key)
		}
	}
	// Cancelled executions must unpublish their cache entries so a later
	// batch can retry...
	if n := e.Stats().Entries; n != 0 {
		t.Fatalf("%d entries cached after cancellation, want 0", n)
	}
	// ...and a retry with a live context succeeds.
	ok := make([]Job[int], len(jobs))
	for i := range jobs {
		ok[i] = constJob(fmt.Sprint(i), "b", i)
	}
	rs2, err := e.RunBatch(context.Background(), ok)
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	for i, r := range rs2 {
		if r.Err != nil || r.Value != i {
			t.Fatalf("retry result %d: %+v", i, r)
		}
	}
}

func TestCacheAccounting(t *testing.T) {
	e := New[int](Options{Workers: 2})
	var executions atomic.Int64
	mk := func(i int) Job[int] {
		return Job[int]{Key: fmt.Sprint(i), Bench: "b", Run: func(context.Context) (int, error) {
			executions.Add(1)
			return i, nil
		}}
	}
	batch := []Job[int]{mk(0), mk(1), mk(2)}
	if _, err := e.RunBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	rs, err := e.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if !r.Cached {
			t.Fatalf("second batch not served from cache: %+v", r)
		}
	}
	st := e.Stats()
	if st.Misses != 3 || st.Hits != 3 || st.Runs != 3 {
		t.Fatalf("hits=%d misses=%d runs=%d, want 3/3/3", st.Hits, st.Misses, st.Runs)
	}
	if n := executions.Load(); n != 3 {
		t.Fatalf("%d executions, want 3", n)
	}
}

func TestInFlightDeduplication(t *testing.T) {
	e := New[int](Options{Workers: 8})
	var executions atomic.Int64
	release := make(chan struct{})
	job := Job[int]{Key: "k", Bench: "b", Run: func(context.Context) (int, error) {
		executions.Add(1)
		<-release
		return 42, nil
	}}
	var wg sync.WaitGroup
	results := make([]JobResult[int], 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _ := runOne(context.Background(), e, job)
			results[i] = r
		}(i)
	}
	// Let all four goroutines reach the engine, then release the owner.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions of one job, want 1 (in-flight dedup)", n)
	}
	for _, r := range results {
		if r.Value != 42 || r.Err != nil {
			t.Fatalf("bad result %+v", r)
		}
	}
}

func TestErrorPropagatesToWaitersAndRetries(t *testing.T) {
	e := New[int](Options{Workers: 4})
	boom := errors.New("boom")
	var calls atomic.Int64
	failing := Job[int]{Key: "k", Bench: "b", Run: func(context.Context) (int, error) {
		calls.Add(1)
		return 0, boom
	}}
	if _, err := runOne(context.Background(), e, failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Errors are not cached: the next attempt re-executes.
	ok := constJob("k", "b", 7)
	r, err := runOne(context.Background(), e, ok)
	if err != nil || r.Value != 7 {
		t.Fatalf("retry after error: %+v, %v", r, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("failing job ran %d times, want 1", n)
	}
}

func TestWaiterSurvivesOwnerCancellation(t *testing.T) {
	e := New[int](Options{Workers: 2})
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerStarted := make(chan struct{})
	ownerJob := Job[int]{Key: "k", Bench: "b", Run: func(ctx context.Context) (int, error) {
		close(ownerStarted)
		<-ctx.Done()
		return 0, ctx.Err()
	}}

	ownerErr := make(chan error, 1)
	go func() {
		_, err := runOne(ownerCtx, e, ownerJob)
		ownerErr <- err
	}()
	<-ownerStarted

	// A second, healthy caller attaches to the in-flight entry...
	waiterRes := make(chan JobResult[int], 1)
	go func() {
		r, _ := runOne(context.Background(), e, constJob("k", "b", 99))
		waiterRes <- r
	}()
	time.Sleep(10 * time.Millisecond)
	cancelOwner()

	// ...the owner fails with its own cancellation...
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	// ...and the waiter must NOT inherit it: it retries, becomes the new
	// owner, and completes.
	select {
	case r := <-waiterRes:
		if r.Err != nil || r.Value != 99 {
			t.Fatalf("waiter poisoned by owner's cancellation: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed after owner cancellation")
	}
}

func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	e := New[int](Options{Workers: 2, OnProgress: func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	batch := []Job[int]{constJob("a", "b", 1), constJob("c", "d", 2)}
	if _, err := e.RunBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("%d events, want one per completed job (2)", len(events))
	}
	for _, ev := range events {
		if ev.Total != 2 {
			t.Errorf("event total %d, want 2", ev.Total)
		}
	}
}
