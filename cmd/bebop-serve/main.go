// Command bebop-serve exposes the simulator as a versioned REST service
// over the bebop/sim SDK: single runs are described by a declarative
// RunSpec (the same JSON `bebop-sim -spec` consumes), experiment sweeps
// share one warm result cache across requests, and every simulation runs
// under its request's context — a disconnected client cancels the work
// instead of burning a worker.
//
// Usage:
//
//	bebop-serve -addr :8080 -n 100000 -max-insts 2000000 -run-timeout 60s \
//	    -rate 5 -admit-concurrency 16 -drain-timeout 30s
//
// v1 API:
//
//	GET  /healthz               liveness: 200 while the process serves HTTP
//	                            (even mid-drain); version, engine stats, limits
//	GET  /readyz                readiness: 503 once draining (SIGTERM received)
//	GET  /metrics               Prometheus text exposition of the process registry
//	GET  /v1/experiments        experiment ids + output formats
//	GET  /v1/workloads          the workload catalog (synthetic + traces)
//	GET  /v1/configs            configurations, predictors, Table III names
//	POST /v1/runs               run one RunSpec; the response is a sim.Report
//	                            (?telemetry=1 adds the report's telemetry block,
//	                            ?async=1 answers 202 {id,...} immediately)
//	GET  /v1/runs/{id}          an async run's state (and report, once done);
//	                            410 Gone after -run-ttl / -max-runs eviction
//	GET  /v1/runs/{id}/events   SSE stream: per-interval progress, then the
//	                            terminal done/error/aborted event
//	POST /v1/sweeps             run a SweepSpec (?format=json|csv|text)
//
// With -pprof the net/http/pprof surface is mounted under /debug/pprof/
// for live profiling (see README "Profiling the hot loop").
//
// Budgets: a RunSpec's insts defaults to -n and is clamped to -max-insts
// server-side; the response's spec.insts shows what actually ran. Sweep
// budgets are fixed per process (-n): results are cached by
// (configuration, workload), so one budget per cache keeps entries
// comparable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bebop/internal/admission"
	"bebop/internal/cli"
	"bebop/internal/faultinject"
	"bebop/sim"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	n := flag.Int64("n", 100_000, "default dynamic instructions per workload (sweeps: fixed per process)")
	maxInsts := flag.Int64("max-insts", 0, "upper bound on a run request's instruction budget (0 = 10x -n)")
	runTimeout := flag.Duration("run-timeout", 60*time.Second, "wall-clock bound for one POST /v1/runs simulation (0 = none)")
	maxConcurrent := flag.Int("max-concurrent-runs", 4, "max concurrent /v1/runs simulations")
	maxRuns := flag.Int("max-runs", 256, "max async runs retained in the store (oldest finished evicted first)")
	runTTL := flag.Duration("run-ttl", 15*time.Minute, "how long a completed async run stays queryable (0 = until -max-runs evicts it)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM, how long in-flight runs may finish before being aborted")
	rate := flag.Float64("rate", 0, "sustained per-client request rate on simulation routes (req/s, 0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-client burst above -rate (0 = max(rate, 1))")
	maxClients := flag.Int("max-clients", 0, "max tracked rate-limit clients (0 = 4096)")
	admitConc := flag.Int("admit-concurrency", 16, "max concurrently admitted simulation requests")
	admitQueue := flag.Int("admit-queue", -1, "max requests queued past -admit-concurrency before shedding 503 (-1 = 4x concurrency)")
	par := flag.Int("p", 0, "max parallel sweep simulations (0 = GOMAXPROCS)")
	traceDir := flag.String("trace-dir", "", "directory of .bbt traces to add as named workloads")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (live CPU/heap profiling)")
	logFormat := cli.AddLogFormat(flag.CommandLine)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(sim.Version())
		return
	}
	if err := cli.InitLogging(*logFormat); err != nil {
		cli.Fatal(err)
	}

	// BEBOP_FAULTS arms the chaos-injection registry for this process
	// ("point:key=value:...,point:..."); see internal/faultinject. Meant
	// for CI chaos suites and staging soak tests, never production.
	if spec := os.Getenv("BEBOP_FAULTS"); spec != "" {
		if err := faultinject.Default.ArmFromSpec(spec); err != nil {
			cli.Fatal(fmt.Errorf("BEBOP_FAULTS: %w", err))
		}
		slog.Warn("fault injection armed", "points", faultinject.Default.Armed())
	}

	s, err := newServer(serverConfig{
		defaultInsts:      *n,
		maxInsts:          *maxInsts,
		runTimeout:        *runTimeout,
		maxConcurrentRuns: *maxConcurrent,
		traceDir:          *traceDir,
		parallel:          *par,
		pprof:             *pprofFlag,
		admit: admission.Config{
			RatePerSec:  *rate,
			Burst:       *burst,
			MaxClients:  *maxClients,
			Concurrency: *admitConc,
			Queue:       *admitQueue,
		},
		runTTL:        *runTTL,
		maxStoredRuns: *maxRuns,
		drainTimeout:  *drainTimeout,
	})
	if err != nil {
		cli.Fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// SIGTERM/SIGINT starts the drain ladder: flip /readyz to 503 and
	// shed new admissions, let in-flight runs finish up to
	// -drain-timeout, abort and mark the survivors, then close the
	// listener. SSE subscribers receive their terminal event before
	// Shutdown's grace window ends, and the process exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		slog.Info("drain: signal received", "inflight", s.inflight.Load(),
			"timeout", s.cfg.drainTimeout)
		s.drain()
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
		slog.Info("drain: complete")
	}()

	slog.Info("bebop-serve listening", "version", sim.Version(), "addr", *addr,
		"insts", s.cfg.defaultInsts, "max_insts", s.cfg.maxInsts,
		"run_timeout", s.cfg.runTimeout, "drain_timeout", s.cfg.drainTimeout,
		"pprof", s.cfg.pprof)
	err = srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		<-drained // Shutdown returned the listener early; finish the ladder
		return
	}
	cli.Fatal(err)
}
