package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"bebop/internal/admission"
	"bebop/internal/prof"
	"bebop/internal/telemetry"
	"bebop/sim"
)

// mRequestSeconds is the whole-server request latency distribution;
// per-route counts live in the route/code-labeled requests counter the
// middleware mints (routes are a small fixed set, so the cardinality
// is bounded by the mux).
var mRequestSeconds = telemetry.Default.Histogram("bebop_serve_request_seconds",
	"HTTP request latency in seconds, all routes",
	[]float64{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10, 60})

// serverConfig is everything main's flags decide.
type serverConfig struct {
	// defaultInsts is the budget used when a RunSpec doesn't set one;
	// maxInsts is the server-side bound a request cannot exceed (the
	// measured budget and the warmup budget are clamped independently).
	defaultInsts int64
	maxInsts     int64
	// runTimeout bounds one POST /v1/runs simulation (0 = none); the
	// request context still cancels earlier if the client disconnects.
	runTimeout time.Duration
	// maxConcurrentRuns bounds simultaneous /v1/runs simulations.
	maxConcurrentRuns int
	traceDir          string
	parallel          int
	// pprof mounts the net/http/pprof surface under /debug/pprof/.
	pprof bool
	// admit configures the front-door rate limiter and load-shed gate.
	admit admission.Config
	// runTTL and maxStoredRuns bound the async run store: completed
	// runs older than runTTL (or past the count cap, oldest-finished
	// first) are evicted and answer 410 Gone afterwards.
	runTTL        time.Duration
	maxStoredRuns int
	// drainTimeout is how long a SIGTERM'd server waits for in-flight
	// runs before cancelling them and marking survivors "aborted".
	drainTimeout time.Duration
}

// server is the bebop-serve HTTP front end over the bebop/sim SDK.
type server struct {
	cfg     serverConfig
	sweeper *sim.Sweeper
	runSem  chan struct{}
	store   *runStore
	admit   *admission.Controller

	// baseCtx parents every simulation (sync and async); baseCancel is
	// the drain-timeout abort switch. inflight counts simulations (not
	// HTTP requests) the drain sequence must wait for.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	inflight   atomic.Int64
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.defaultInsts <= 0 {
		cfg.defaultInsts = sim.DefaultInsts
	}
	if cfg.maxInsts <= 0 {
		cfg.maxInsts = 10 * cfg.defaultInsts
	}
	if cfg.defaultInsts > cfg.maxInsts {
		cfg.defaultInsts = cfg.maxInsts
	}
	if cfg.maxConcurrentRuns <= 0 {
		cfg.maxConcurrentRuns = 4
	}
	sw, err := sim.NewSweeper(sim.SweepOptions{
		Insts:    cfg.defaultInsts,
		TraceDir: cfg.traceDir,
		Parallel: cfg.parallel,
	})
	if err != nil {
		return nil, err
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	return &server{
		cfg:        cfg,
		sweeper:    sw,
		runSem:     make(chan struct{}, cfg.maxConcurrentRuns),
		store:      newRunStore(cfg.runTTL, cfg.maxStoredRuns),
		admit:      admission.New(cfg.admit),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
	}, nil
}

// routes builds the v1 REST mux.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /v1/experiments", s.experimentsV1)
	mux.HandleFunc("GET /v1/workloads", s.workloadsV1)
	mux.HandleFunc("GET /v1/configs", s.configsV1)
	// Admission control wraps only the expensive simulation routes.
	// Catalog reads, run status and SSE subscriptions stay unwrapped:
	// a draining node must keep serving terminal events to subscribers
	// even while it sheds new work.
	mux.Handle("POST /v1/runs", s.admit.Wrap(http.HandlerFunc(s.runsV1)))
	mux.HandleFunc("GET /v1/runs/{id}", s.runStatusV1)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.runEventsV1)
	mux.Handle("POST /v1/sweeps", s.admit.Wrap(http.HandlerFunc(s.sweepsV1)))
	if s.cfg.pprof {
		mux.Handle("/debug/pprof/", prof.Handler())
	}
	return s.withMetrics(mux)
}

// withMetrics wraps the mux with request accounting: one counter per
// (route pattern, status code) plus the server-wide latency histogram.
// The label is the mux pattern, not the raw URL, so unmatched probe
// paths collapse into a single series instead of minting one per URL.
func (s *server) withMetrics(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, pattern := mux.Handler(req)
		if pattern == "" {
			pattern = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		mux.ServeHTTP(sw, req)
		telemetry.Default.Counter(fmt.Sprintf(
			`bebop_serve_requests_total{route=%q,code="%d"}`, pattern, sw.status),
			"HTTP requests served, by mux route pattern and status code").Inc()
		mRequestSeconds.Observe(time.Since(start).Seconds())
	})
}

// statusWriter records the response status for the metrics middleware.
// It implements http.Flusher explicitly (interface embedding does not
// forward it), because the SSE events handler streams through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// metrics serves the process-wide registry in Prometheus text
// exposition format: simulation totals, engine cache and worker
// activity, interval scheduling, trace IO and this server's own
// request accounting.
func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := sim.WriteMetrics(w); err != nil {
		slog.Error("metrics write failed", "err", err)
	}
}

// healthz is liveness: it answers 200 as long as the process can serve
// HTTP at all — including while draining, so an orchestrator does not
// kill a node that is busy finishing in-flight work.
func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"version":  sim.Version(),
		"engine":   s.sweeper.Stats(),
		"draining": s.draining.Load(),
		"inflight": s.inflight.Load(),
		"store":    s.store.stats(),
		"limits": map[string]any{
			"default_insts":         s.cfg.defaultInsts,
			"max_insts":             s.cfg.maxInsts,
			"run_timeout_seconds":   s.cfg.runTimeout.Seconds(),
			"max_concurrent_runs":   s.cfg.maxConcurrentRuns,
			"drain_timeout_seconds": s.cfg.drainTimeout.Seconds(),
			"admission":             s.admit.Limits(),
		},
	})
}

// readyz is readiness: 503 once the drain switch flips, so load
// balancers stop routing new work here while /healthz stays green.
func (s *server) readyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "inflight": s.inflight.Load(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// beginDrain flips the node out of rotation: readiness answers 503 and
// the admission layer sheds every new simulation request. In-flight
// work keeps running.
func (s *server) beginDrain() {
	s.draining.Store(true)
	s.admit.SetDraining(true)
}

// abortInflight cancels baseCtx, the parent of every simulation. Async
// runs observe it within ~1K simulated instructions and finish as
// "aborted"; sync handlers answer 503.
func (s *server) abortInflight() { s.baseCancel() }

// drain executes the shutdown ladder: stop admitting, wait up to
// cfg.drainTimeout for in-flight simulations, then cancel the
// survivors and wait briefly for their terminal events to publish.
func (s *server) drain() {
	s.beginDrain()
	deadline := time.Now().Add(s.cfg.drainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if n := s.inflight.Load(); n > 0 {
		slog.Warn("drain: timeout, aborting in-flight runs", "count", n)
		s.abortInflight()
		grace := time.Now().Add(5 * time.Second)
		for s.inflight.Load() > 0 && time.Now().Before(grace) {
			time.Sleep(25 * time.Millisecond)
		}
	}
}

func (s *server) experimentsV1(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments": sim.Experiments(),
		"formats":     sim.Formats(),
	})
}

func (s *server) workloadsV1(w http.ResponseWriter, _ *http.Request) {
	infos, err := sim.ListWorkloads(s.cfg.traceDir)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": infos})
}

func (s *server) configsV1(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"configs":       sim.Configs(),
		"predictors":    sim.Predictors(),
		"bebop_configs": sim.BeBoPConfigs(),
		"policies":      sim.Policies(),
	})
}

// runsV1 executes one RunSpec under the request's context: the budget is
// clamped to the server bound, the run is cancelled when the client
// disconnects, and -run-timeout caps how long one request may simulate.
func (s *server) runsV1(w http.ResponseWriter, req *http.Request) {
	spec, err := sim.DecodeRunSpec(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	// File access stays pinned to the operator's -trace-dir: a request
	// must not name server-side paths (probing arbitrary files via open()
	// errors) or re-point the catalog directory.
	if spec.Trace != "" {
		httpError(w, http.StatusBadRequest,
			"trace file paths are not accepted over HTTP; put the .bbt in the server's -trace-dir and select it with workload", nil)
		return
	}
	if spec.TraceDir != "" && spec.TraceDir != s.cfg.traceDir {
		httpError(w, http.StatusBadRequest,
			"trace_dir is fixed per server (start bebop-serve with -trace-dir); drop it from the spec", nil)
		return
	}
	spec.TraceDir = s.cfg.traceDir

	// Server-side budget bounds. Clamping (rather than rejecting) keeps
	// the endpoint usable without knowing the bound: the response's
	// spec.insts shows what actually ran. Negative budgets are not
	// defaulted — Validate rejects them with a 400, like every other
	// front end.
	if spec.Insts == 0 {
		spec.Insts = s.cfg.defaultInsts
	}
	if spec.Insts > s.cfg.maxInsts {
		spec.Insts = s.cfg.maxInsts
	}
	if spec.Warmup != nil && *spec.Warmup > s.cfg.maxInsts {
		clamped := s.cfg.maxInsts
		spec.Warmup = &clamped
	}

	spec, err = spec.Validate()
	if err != nil {
		clientOrServerError(w, err)
		return
	}

	var opts []sim.Option
	if isTrue(req.URL.Query().Get("telemetry")) {
		opts = append(opts, sim.WithTelemetry())
	}

	// ?async=1 detaches the run from the request: the response is an
	// immediate 202 with the run id, progress streams over
	// GET /v1/runs/{id}/events, and the report lands at GET /v1/runs/{id}.
	if isTrue(req.URL.Query().Get("async")) {
		run := s.store.create(spec)
		go s.executeAsync(run, opts)
		writeJSON(w, http.StatusAccepted, map[string]any{
			"id":         run.ID,
			"status_url": "/v1/runs/" + run.ID,
			"events_url": "/v1/runs/" + run.ID + "/events",
		})
		return
	}

	// One slot per run, bounded: a burst of requests queues here instead
	// of oversubscribing the simulator; a client that gives up while
	// queued costs nothing (ctx is checked before the run starts).
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	// Tie the run to the drain abort switch: when the drain timeout
	// cancels baseCtx, this run stops within ~1K simulated instructions
	// and the client gets a 503 instead of a hung connection.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	select {
	case s.runSem <- struct{}{}:
		defer func() { <-s.runSem }()
	case <-ctx.Done():
		if s.answerDrainAbort(w, ctx.Err()) {
			return
		}
		logClientGone(req, ctx.Err())
		return
	}
	if s.cfg.runTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.runTimeout)
		defer cancel()
	}

	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	rep, err := sim.FromSpec(spec, opts...).Run(ctx)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("run exceeded the server's -run-timeout (%s); lower insts (max %d)",
				s.cfg.runTimeout, s.cfg.maxInsts), nil)
		return
	case errors.Is(err, context.Canceled):
		if s.answerDrainAbort(w, err) {
			return
		}
		logClientGone(req, err)
		return
	default:
		clientOrServerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
	slog.Info("run ok", "config", rep.Config, "workload", rep.Workload,
		"insts", rep.Spec.Insts, "elapsed", time.Since(start).Round(time.Millisecond),
		"remote", req.RemoteAddr)
}

func isTrue(v string) bool {
	return v == "1" || v == "true" || v == "yes"
}

// answerDrainAbort maps a cancellation caused by the drain abort (not
// by the client hanging up) to an honest 503, and reports whether it
// answered. The client's own disconnect stays a silent log line.
func (s *server) answerDrainAbort(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, context.Canceled) || s.baseCtx.Err() == nil {
		return false
	}
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable,
		"server draining: run aborted; retry against another node", nil)
	return true
}

// executeAsync runs one detached simulation: it competes for the same
// run slots as synchronous requests and honours the same -run-timeout,
// but lives on the server's base context — an events subscriber
// disconnecting never cancels the run, while the drain abort does, in
// which case the run finishes "aborted" (a terminal SSE event) rather
// than "error".
func (s *server) executeAsync(run *asyncRun, opts []sim.Option) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	select {
	case s.runSem <- struct{}{}:
		defer func() { <-s.runSem }()
	case <-s.baseCtx.Done():
		run.abort("server draining: run aborted before it started; resubmit elsewhere")
		return
	}
	ctx := s.baseCtx
	if s.cfg.runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.runTimeout)
		defer cancel()
	}
	start := time.Now()
	opts = append(opts, sim.WithProgress(run.progress))
	rep, err := sim.FromSpec(run.Spec, opts...).Run(ctx)
	if errors.Is(err, context.Canceled) && s.baseCtx.Err() != nil {
		run.abort("server draining: run aborted; resubmit elsewhere")
		slog.Warn("async run aborted by drain", "id", run.ID)
		return
	}
	run.finish(rep, err)
	if err != nil {
		slog.Error("async run failed", "id", run.ID, "err", err)
		return
	}
	slog.Info("async run ok", "id", run.ID, "config", rep.Config,
		"workload", rep.Workload, "insts", rep.Spec.Insts,
		"elapsed", time.Since(start).Round(time.Millisecond))
}

// runStatusV1 reports an async run's rolled-up state (and its report,
// once done). An evicted run answers 410 Gone — "it existed, the
// result is no longer held" — distinctly from a never-seen 404.
func (s *server) runStatusV1(w http.ResponseWriter, req *http.Request) {
	run, gone := s.store.get(req.PathValue("id"))
	if run == nil {
		if gone {
			httpError(w, http.StatusGone, "run evicted from the store (see -run-ttl / -max-runs)", nil)
			return
		}
		httpError(w, http.StatusNotFound, "unknown run id", nil)
		return
	}
	writeJSON(w, http.StatusOK, run.statusBody())
}

// runEventsV1 streams an async run's events as server-sent events: the
// replay buffer first (a late subscriber still sees the history —
// prefixed by a "truncated" event when the buffer's front was evicted
// under it), then live events as they publish — at least one "progress"
// event per completed sampling interval — ending with the terminal
// "done" (data: the sim.Report), "error" or "aborted" event. The stream
// also ends when the client disconnects; the run itself keeps going.
func (s *server) runEventsV1(w http.ResponseWriter, req *http.Request) {
	run, gone := s.store.get(req.PathValue("id"))
	if run == nil {
		if gone {
			httpError(w, http.StatusGone, "run evicted from the store (see -run-ttl / -max-runs)", nil)
			return
		}
		httpError(w, http.StatusNotFound, "unknown run id", nil)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported", nil)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	idx := 0
	for {
		evs, next, notify, complete := run.eventsSince(idx)
		for _, ev := range evs {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.kind, ev.data); err != nil {
				return
			}
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		idx = next
		if complete {
			return
		}
		select {
		case <-notify:
		case <-req.Context().Done():
			return
		}
	}
}

// sweepsV1 executes a SweepSpec against the shared warm cache. The
// format query parameter selects text, json (default) or csv.
func (s *server) sweepsV1(w http.ResponseWriter, req *http.Request) {
	spec, err := sim.DecodeSweepSpec(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	format := req.URL.Query().Get("format")
	if format == "" {
		format = "json" // unlike the CLI, the service defaults to JSON
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}

	// Sweeps participate in the drain ladder like runs: baseCtx
	// cancellation aborts them, and inflight accounting holds the drain
	// loop open until they finish.
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	// Sweeper.Write runs every experiment before it writes, but a write
	// error straight to w would leave a half-sent 200; buffer the whole
	// document so errors still map to statuses.
	var buf strings.Builder
	start := time.Now()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	err = s.sweeper.Write(ctx, &buf, format, spec)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if s.answerDrainAbort(w, err) {
				return
			}
			logClientGone(req, err)
			return
		}
		w.Header().Del("Content-Type") // error bodies are JSON
		clientOrServerError(w, err)
		return
	}
	fmt.Fprint(w, buf.String())
	slog.Info("sweep ok", "experiments", spec.Experiments,
		"elapsed", time.Since(start).Round(time.Millisecond), "remote", req.RemoteAddr)
}

// clientOrServerError maps unknown-name and budget errors to 400 (the
// body carries the valid names) and everything else to 500.
func clientOrServerError(w http.ResponseWriter, err error) {
	var ue *sim.UnknownNameError
	if errors.As(err, &ue) {
		httpError(w, http.StatusBadRequest, err.Error(), map[string]any{
			"kind":  ue.Kind,
			"name":  ue.Name,
			"valid": ue.Valid,
		})
		return
	}
	var be *sim.BudgetError
	if errors.Is(err, sim.ErrInvalidSpec) || errors.As(err, &be) {
		httpError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	httpError(w, http.StatusInternalServerError, err.Error(), nil)
}

func logClientGone(req *http.Request, err error) {
	slog.Info("client gone", "method", req.Method, "path", req.URL.Path, "err", err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string, extra map[string]any) {
	body := map[string]any{"error": msg}
	for k, v := range extra {
		body[k] = v
	}
	writeJSON(w, code, body)
}
