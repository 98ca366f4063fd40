package admission

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestRateLimiterBurstThenRefill(t *testing.T) {
	l := NewRateLimiter(10, 2, 0) // 10 tokens/s, burst 2
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("c", now); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.Allow("c", now)
	if ok {
		t.Fatal("third immediate request admitted past burst")
	}
	if retry <= 0 || retry > 150*time.Millisecond {
		t.Fatalf("retry hint %v, want ~100ms at 10 req/s", retry)
	}
	// 100ms accrues exactly one token.
	if ok, _ := l.Allow("c", now.Add(100*time.Millisecond)); !ok {
		t.Fatal("request denied after refill interval")
	}
	if ok, _ := l.Allow("c", now.Add(100*time.Millisecond)); ok {
		t.Fatal("second request admitted from a single refilled token")
	}
}

func TestRateLimiterKeysAreIndependent(t *testing.T) {
	l := NewRateLimiter(1, 1, 0)
	now := time.Unix(1000, 0)
	if ok, _ := l.Allow("a", now); !ok {
		t.Fatal("a denied")
	}
	if ok, _ := l.Allow("a", now); ok {
		t.Fatal("a's second request admitted")
	}
	if ok, _ := l.Allow("b", now); !ok {
		t.Fatal("b punished for a's traffic")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	l := NewRateLimiter(0, 0, 0)
	now := time.Now()
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("c", now); !ok {
			t.Fatal("disabled limiter denied a request")
		}
	}
	var nilL *RateLimiter
	if ok, _ := nilL.Allow("c", now); !ok {
		t.Fatal("nil limiter denied a request")
	}
}

func TestRateLimiterEvictsOldestAtCap(t *testing.T) {
	l := NewRateLimiter(1, 1, 4)
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		l.Allow("k"+strconv.Itoa(i), now.Add(time.Duration(i)*time.Second))
	}
	// A fifth key evicts k0, the least recently seen.
	l.Allow("k4", now.Add(10*time.Second))
	if got := l.Clients(); got != 4 {
		t.Fatalf("clients = %d, want cap 4", got)
	}
	// k0 returns with a fresh (full) bucket: its first request admits.
	if ok, _ := l.Allow("k0", now.Add(10*time.Second)); !ok {
		t.Fatal("evicted key did not get a fresh bucket")
	}
}

// enter takes a gate place and fails the test when the gate sheds.
func enter(t *testing.T, g *Gate) *Ticket {
	t.Helper()
	tk, err := g.Enter()
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestGateConcurrencyAndQueueBound(t *testing.T) {
	g := NewGate(2, 1)
	ctx := context.Background()
	t1, t2 := enter(t, g), enter(t, g)
	if err := t1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := t2.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// The third simulation takes the queue place before it waits, the
	// way an async run does before its 202.
	t3 := enter(t, g)
	if a, q := g.Depth(); a != 2 || q != 1 {
		t.Fatalf("depth = (%d,%d), want (2,1)", a, q)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- t3.Wait(ctx) }()

	// A fourth overflows the queue: an immediate ShedError.
	_, err := g.Enter()
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrShed) {
		t.Fatalf("overflow did not shed: %v", err)
	}
	if shed.RetryAfter < time.Second {
		t.Fatalf("shed retry hint %v < 1s", shed.RetryAfter)
	}

	t1.Done()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
		t3.Done()
	case <-time.After(2 * time.Second):
		t.Fatal("queued simulation never got the freed slot")
	}
	t2.Done()
	if a, q := g.Depth(); a != 0 || q != 0 {
		t.Fatalf("depth after release = (%d,%d), want (0,0)", a, q)
	}
}

func TestGateQueuedCallerHonorsContext(t *testing.T) {
	g := NewGate(1, 4)
	holder := enter(t, g)
	if err := holder.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer holder.Done()
	waiter := enter(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := waiter.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued caller got %v, want DeadlineExceeded", err)
	}
	// A waiter that gave up keeps its place until Done gives it back.
	if _, q := g.Depth(); q != 1 {
		t.Fatalf("queue depth %d before Done, want 1", q)
	}
	waiter.Done()
	if _, q := g.Depth(); q != 0 {
		t.Fatalf("abandoned waiter still counted: queue depth %d", q)
	}
}

func TestGateConcurrentLoad(t *testing.T) {
	g := NewGate(4, 64)
	var wg sync.WaitGroup
	var active, peak atomicMax
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := g.Enter()
			if err != nil {
				t.Error(err)
				return
			}
			defer tk.Done()
			if err := tk.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			peak.observe(active.add(1))
			time.Sleep(time.Millisecond)
			active.add(-1)
		}()
	}
	wg.Wait()
	if p := peak.load(); p > 4 {
		t.Fatalf("observed %d concurrent holders past a 4-slot gate", p)
	}
}

type atomicMax struct {
	mu   sync.Mutex
	v, m int
}

func (a *atomicMax) add(d int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v += d
	return a.v
}

func (a *atomicMax) observe(v int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if v > a.m {
		a.m = v
	}
}

func (a *atomicMax) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m
}

func TestControllerWrapRateLimit(t *testing.T) {
	c := New(Config{RatePerSec: 0.5, Burst: 1, Concurrency: 4, Queue: 4})
	h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	do := func(client string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := do("alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	resp := do("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// A different client is unaffected.
	if resp := do("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("other client shed: %d", resp.StatusCode)
	}
}

func TestControllerEnterShedsQueueOverflowWithDepth(t *testing.T) {
	c := New(Config{Concurrency: 1, Queue: 0})
	first := c.Enter(httptest.NewRecorder())
	if first == nil {
		t.Fatal("an empty gate shed")
	}

	rec := httptest.NewRecorder()
	if tk := c.Enter(rec); tk != nil {
		t.Fatal("a full gate with no queue gave out a second place")
	}
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("overflow answered %d, Retry-After %q; want 503 with a hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	var body struct {
		QueueDepth        *int `json:"queue_depth"`
		RetryAfterSeconds int  `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.QueueDepth == nil || body.RetryAfterSeconds < 1 {
		t.Fatalf("shed body not actionable: %s", rec.Body)
	}

	// Wrap holds no place: with the gate full it still serves requests.
	h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("Wrap answered %d with the gate full, want 200", rec.Code)
	}

	first.Done()
	if tk := c.Enter(httptest.NewRecorder()); tk == nil {
		t.Fatal("Done did not give the place back")
	} else {
		tk.Done()
	}
	if a, q := c.Depth(); a != 0 || q != 0 {
		t.Fatalf("depth = (%d,%d), want (0,0)", a, q)
	}
}

func TestControllerDrainSheds(t *testing.T) {
	c := New(Config{})
	h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c.SetDraining(true)
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining node answered %d, want 503", resp.StatusCode)
	}
	c.SetDraining(false)
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undrained node answered %d", resp.StatusCode)
	}
}

func TestClientKey(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.RemoteAddr = "10.1.2.3:49152"
	if got := ClientKey(r); got != "10.1.2.3" {
		t.Fatalf("remote-addr key = %q", got)
	}
	r.Header.Set("X-Client-ID", "team-42")
	if got := ClientKey(r); got != "team-42" {
		t.Fatalf("header key = %q", got)
	}
}
