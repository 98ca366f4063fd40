package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bebop/internal/admission"
	"bebop/sim"
)

// testServerS is testServer, also exposing the server value so tests
// can drive the drain ladder and inspect the store directly.
func testServerS(t *testing.T, cfg serverConfig) (*httptest.Server, *server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts, s
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within 10s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateDepth reads the admission gate's running and queued simulations
// from /healthz.
func gateDepth(t *testing.T, base string) (active, queued int) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Limits struct {
			Admission struct{ Active, Queued int }
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Limits.Admission.Active, h.Limits.Admission.Queued
}

// sseKinds subscribes to an SSE stream and delivers each event's kind;
// the channel closes when the stream ends.
func sseKinds(t *testing.T, url string) <-chan string {
	t.Helper()
	sub, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Body.Close() })
	// Buffered so the stream keeps flowing while the test is busy
	// elsewhere, such as in a drain.
	kinds := make(chan string, 64)
	go func() {
		defer close(kinds)
		sc := bufio.NewScanner(sub.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				kinds <- strings.TrimPrefix(line, "event: ")
			}
		}
	}()
	return kinds
}

// terminalKind waits for a stream's first terminal event.
func terminalKind(t *testing.T, kinds <-chan string) string {
	t.Helper()
	timeout := time.After(15 * time.Second)
	for {
		select {
		case kind, ok := <-kinds:
			if !ok {
				t.Fatal("SSE stream ended without a terminal event")
			}
			if kind == "done" || kind == "error" || kind == "aborted" {
				return kind
			}
		case <-timeout:
			t.Fatal("no terminal SSE event within 15s")
		}
	}
}

func TestReadyzFlipsOnDrainWhileHealthzStaysLive(t *testing.T) {
	ts, s := testServerS(t, serverConfig{defaultInsts: 5_000})
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusOK {
		t.Fatalf("readyz before drain: %d", got)
	}
	s.admit.SetDraining(true)
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", got)
	}
	// Liveness must not flip: the orchestrator would kill a node that is
	// still finishing in-flight work.
	if got := getStatus(t, ts.URL+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", got)
	}
	// New simulation work is shed by the admission layer.
	resp, blob := postJSON(t, ts.URL+"/v1/runs", `{"workload":"swim","insts":4000}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run during drain: %d (%s), want 503", resp.StatusCode, blob)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed without Retry-After")
	}
}

func TestAdmissionRateLimitOnRunsRoute(t *testing.T) {
	ts, _ := testServerS(t, serverConfig{
		defaultInsts: 5_000,
		admit:        admission.Config{RatePerSec: 0.01, Burst: 1},
	})
	do := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs",
			strings.NewReader(`{"workload":"swim","insts":4000}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", "hammer")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := do(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	resp := do()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Catalog reads are not admission-controlled.
	if got := getStatus(t, ts.URL+"/v1/configs"); got != http.StatusOK {
		t.Fatalf("catalog read rate-limited: %d", got)
	}
}

func TestRunStoreTTLEvictionAnswers410(t *testing.T) {
	ts, s := testServerS(t, serverConfig{
		defaultInsts: 5_000,
		runTTL:       time.Millisecond,
	})
	run := s.store.create(sim.RunSpec{Workload: "swim"})
	run.finish(sim.Report{}, nil)
	time.Sleep(5 * time.Millisecond)
	// The next store touch sweeps; the evicted id answers 410, an
	// unknown one 404.
	if got := getStatus(t, ts.URL+"/v1/runs/"+run.ID); got != http.StatusGone {
		t.Fatalf("evicted run status: %d, want 410", got)
	}
	if got := getStatus(t, ts.URL+"/v1/runs/"+run.ID+"/events"); got != http.StatusGone {
		t.Fatalf("evicted run events: %d, want 410", got)
	}
	if got := getStatus(t, ts.URL+"/v1/runs/r999999"); got != http.StatusNotFound {
		t.Fatalf("unknown run: %d, want 404", got)
	}
}

func TestRunStoreCapEvictsOldestFinished(t *testing.T) {
	st := newRunStore(0, 2)
	a := st.create(sim.RunSpec{})
	b := st.create(sim.RunSpec{})
	a.finish(sim.Report{}, nil)
	time.Sleep(2 * time.Millisecond)
	b.finish(sim.Report{}, nil)
	c := st.create(sim.RunSpec{}) // over cap: a (oldest finished) goes
	if run, gone := st.get(a.ID); run != nil || !gone {
		t.Fatalf("oldest finished run not evicted: run=%v gone=%v", run != nil, gone)
	}
	if run, _ := st.get(b.ID); run == nil {
		t.Fatal("newer finished run evicted out of order")
	}
	if run, _ := st.get(c.ID); run == nil {
		t.Fatal("running run evicted")
	}
	// Running runs are never evicted, even past the cap.
	d := st.create(sim.RunSpec{})
	e := st.create(sim.RunSpec{})
	for _, run := range []*asyncRun{c, d, e} {
		if got, _ := st.get(run.ID); got == nil {
			t.Fatalf("running run %s evicted", run.ID)
		}
	}
}

func TestReplayBufferTruncatesFromFront(t *testing.T) {
	run := &asyncRun{ID: "r1", notify: make(chan struct{}), state: "running"}
	const extra = 50
	for i := 0; i < maxReplayEvents+extra; i++ {
		run.progress(int64(i), int64(maxReplayEvents+extra))
	}
	run.finish(sim.Report{}, nil)

	evs, next, _, complete := run.eventsSince(0)
	if !complete {
		t.Fatal("finished run not complete")
	}
	if evs[0].kind != "truncated" {
		t.Fatalf("late subscriber's first event is %q, want truncated", evs[0].kind)
	}
	var tr struct {
		Missed int `json:"missed"`
	}
	if err := json.Unmarshal(evs[0].data, &tr); err != nil || tr.Missed == 0 {
		t.Fatalf("truncated event not actionable: %s", evs[0].data)
	}
	if last := evs[len(evs)-1]; last.kind != "done" {
		t.Fatalf("terminal event %q was dropped by truncation", last.kind)
	}
	// A subscriber that was current before the window slid misses
	// nothing and gets no truncated marker.
	evs2, _, _, _ := run.eventsSince(next)
	if len(evs2) != 0 {
		t.Fatalf("current subscriber got %d events", len(evs2))
	}
	// The buffer itself is bounded: stored events plus the terminal one.
	run.mu.Lock()
	n := len(run.events)
	run.mu.Unlock()
	if n > maxReplayEvents+1 {
		t.Fatalf("replay buffer holds %d events, cap %d", n, maxReplayEvents)
	}
}

// TestDrainAbortsAsyncRunWithTerminalSSE is the drain ladder end to
// end, in-process: a long async run straddles the drain, the timeout
// aborts it, and the SSE subscriber receives the terminal "aborted"
// event instead of a hung stream.
func TestDrainAbortsAsyncRunWithTerminalSSE(t *testing.T) {
	ts, s := testServerS(t, serverConfig{
		defaultInsts: 5_000,
		maxInsts:     500_000_000,
		drainTimeout: 50 * time.Millisecond,
	})
	id, eventsURL := startAsyncRun(t, ts, `{"workload":"swim","insts":400000000}`)
	// Subscribe before the drain so the terminal event arrives live.
	events := sseKinds(t, ts.URL+eventsURL)

	// Wait until the simulation holds its slot, then drain.
	waitFor(t, "async run holds a slot", func() bool { active, _ := s.admit.Depth(); return active == 1 })
	s.drain()

	if kind := terminalKind(t, events); kind != "aborted" {
		t.Fatalf("run reached %q before the drain aborted it; raise insts", kind)
	}
	// Terminal state is queryable too.
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		State string `json:"state"`
	}
	json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if status.State != "aborted" {
		t.Fatalf("status after drain = %q, want aborted", status.State)
	}
}

// TestAdmissionGateHoldsAsyncRuns: the admission gate bounds async runs
// from their POST to their end. With one slot and one queue place, a
// long async run holds the slot, a second queues behind it and a third
// is shed with 503; a drain then aborts both admitted runs, each with a
// terminal SSE event, and leaves the gate empty.
func TestAdmissionGateHoldsAsyncRuns(t *testing.T) {
	ts, s := testServerS(t, serverConfig{
		defaultInsts: 5_000,
		maxInsts:     500_000_000,
		drainTimeout: 50 * time.Millisecond,
		admit:        admission.Config{Concurrency: 1, Queue: 1},
	})
	const long = `{"workload":"swim","insts":400000000}`
	const shedQueue = `bebop_admission_requests_total{decision="shed_queue"}`

	_, running := startAsyncRun(t, ts, long)
	waitFor(t, "first async run holds the slot", func() bool {
		active, queued := gateDepth(t, ts.URL)
		return active == 1 && queued == 0
	})
	_, queued := startAsyncRun(t, ts, long)
	if a, q := gateDepth(t, ts.URL); a != 1 || q != 1 {
		t.Fatalf("gate after the second async run = (%d active, %d queued), want (1, 1)", a, q)
	}

	before := scrapeMetrics(t, ts.URL)[shedQueue]
	resp, blob := postJSON(t, ts.URL+"/v1/runs?async=1", long)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third async run answered %d (%s), want 503", resp.StatusCode, blob)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue shed without Retry-After")
	}
	if d := scrapeMetrics(t, ts.URL)[shedQueue] - before; d != 1 {
		t.Fatalf("%s advanced by %v, want 1", shedQueue, d)
	}
	// Invalid specs answer 400 before they ask the full gate for a place.
	for url, body := range map[string]string{
		"/v1/runs?async=1": `{"workload":"nope"}`,
		"/v1/runs":         `{"workload":"swim","insts":-1}`,
		"/v1/sweeps":       `{"experiments":["nope"]}`,
	} {
		if resp, blob := postJSON(t, ts.URL+url, body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %s with the gate full: %d (%s), want 400", url, body, resp.StatusCode, blob)
		}
	}

	streams := []<-chan string{sseKinds(t, ts.URL+running), sseKinds(t, ts.URL+queued)}
	s.drain()
	if a, q := gateDepth(t, ts.URL); a != 0 || q != 0 {
		t.Fatalf("gate after drain = (%d active, %d queued), want empty", a, q)
	}
	for i, events := range streams {
		if kind := terminalKind(t, events); kind != "aborted" {
			t.Fatalf("run %d ended %q, want aborted", i, kind)
		}
	}
}
