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

func TestGateConcurrencyAndQueueBound(t *testing.T) {
	g := NewGate(2, 1)
	rel1, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Third caller queues; it must block until a slot frees.
	acquired := make(chan func(), 1)
	go func() {
		rel, err := g.Acquire(context.Background())
		if err != nil {
			t.Error(err)
		}
		acquired <- rel
	}()
	waitFor(t, func() bool { _, q := g.Depth(); return q == 1 })

	// Fourth caller overflows the queue: an immediate ShedError.
	_, err = g.Acquire(context.Background())
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrShed) {
		t.Fatalf("overflow did not shed: %v", err)
	}
	if shed.RetryAfter < time.Second {
		t.Fatalf("shed retry hint %v < 1s", shed.RetryAfter)
	}

	rel1()
	select {
	case rel := <-acquired:
		rel()
	case <-time.After(2 * time.Second):
		t.Fatal("queued caller never got the freed slot")
	}
	rel2()
	if a, q := g.Depth(); a != 0 || q != 0 {
		t.Fatalf("depth after release = (%d,%d), want (0,0)", a, q)
	}
}

func TestGateQueuedCallerHonorsContext(t *testing.T) {
	g := NewGate(1, 4)
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued caller got %v, want DeadlineExceeded", err)
	}
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
			rel, err := g.Acquire(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			peak.observe(active.add(1))
			time.Sleep(time.Millisecond)
			active.add(-1)
			rel()
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

func TestControllerWrapShedsQueueOverflowWithDepth(t *testing.T) {
	c := New(Config{Concurrency: 1, Queue: 0})
	release := make(chan struct{})
	h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	first := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	waitFor(t, func() bool { a, _ := c.gate.Depth(); return a == 1 })

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: %d, want 503 (%s)", resp.StatusCode, blob)
	}
	var body struct {
		QueueDepth        *int `json:"queue_depth"`
		RetryAfterSeconds int  `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(blob, &body); err != nil || body.QueueDepth == nil || body.RetryAfterSeconds < 1 {
		t.Fatalf("shed body not actionable: %s", blob)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
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

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
