package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"bebop/sim"
)

// serveClients is the closed loop's client count: one per core of the
// 2-core reference host, so the server is busy without queueing.
const serveClients = 2

// server is a bebop-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bebop-serve and polls /readyz (≤1 ms between polls)
// until it answers 200. It returns the server and the exec → ready time.
func startServer(bin, dir string, pprof bool) (*server, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr, "-n", strconv.Itoa(opInsts), "-drain-timeout", "5s"}
	if pprof {
		args = append(args, "-pprof")
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	dieWithParent(cmd)
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * serveClients,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	poll := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("bebop-serve exited before ready: %v (log: %s)", s.err, logf.Name())
		default:
		}
		if resp, err := poll.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				poll.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, errors.New("bebop-serve not ready after 30s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM (bebop-serve drains and exits 0) and waits for the
// process; it kills it if the drain takes longer than 10s.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// post sends one RunSpec body and returns the response body and status.
func (s *server) post(body []byte) ([]byte, int, error) {
	resp, err := s.client.Post(s.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func (s *server) counters() (map[string]float64, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return scrapeCounters(bytes.NewReader(b))
}

// shed sums the admission layer's refusals.
func shed(c map[string]float64) float64 {
	return c[`bebop_admission_requests_total{decision="shed_rate"}`] +
		c[`bebop_admission_requests_total{decision="shed_queue"}`] +
		c[`bebop_admission_requests_total{decision="shed_drain"}`]
}

// encodeLikeServer renders a Report the way bebop-serve writes it.
func encodeLikeServer(rep sim.Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(rep)
	return buf.Bytes(), err
}

// reportDigest hashes reports with their specs dropped, so the digest
// covers the simulated statistics and the names of what ran.
func reportDigest(reps []sim.Report) string {
	cp := make([]sim.Report, len(reps))
	for i, r := range reps {
		r.Spec = sim.RunSpec{}
		cp[i] = r
	}
	return digestOf(cp)
}

// runServe drives a bebop-serve child with a closed loop of
// serveClients clients posting the 12 detailed specs.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	bin := filepath.Join(cfg.buildDir, "bin", "bebop-serve")
	specs := allSpecs()
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(runSpecOf(s))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	o := &outcome{}
	var (
		st    setupTimes
		refs  [][]byte // set-up 0's responses
		srv   *server
		win   window
		rss   float64
		delta = map[string]float64{} // /metrics increments over the window
		split profileSplit
		profs [][]byte
		rec   *recorder
	)
	if cfg.trace {
		rec = newRecorder()
	}
	order := opOrder(cfg.seed, len(specs), 1<<16)
	op := func(i int) opResult {
		si := order[i%len(order)]
		t0 := time.Now()
		body, code, err := srv.post(bodies[si])
		t1 := time.Now()
		rec.add(i+1, 0, "serve.post", t0, t1)
		r := opResult{lat: t1.Sub(t0), insts: opBudget}
		switch {
		case err != nil:
			r.why = err.Error()
		case code != http.StatusOK:
			r.why = fmt.Sprintf("%v: HTTP %d", specs[si], code)
		case !bytes.Equal(body, refs[si]):
			r.why = fmt.Sprintf("%v: report differs from the set-up reference", specs[si])
		default:
			r.ok = true
		}
		return r
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for k := 0; k < setupReps; k++ {
		// Set-up k: exec → /readyz, then one warm-up request per spec.
		// The previous set-up's server is stopped and reaped first.
		if srv != nil {
			srv.stop()
			srv = nil
		}
		start := time.Now()
		s, ready, err := startServer(bin, filepath.Join(cfg.runDir, fmt.Sprintf("setup%d", k)), cfg.trace)
		if err != nil {
			return nil, err
		}
		srv = s
		warm := time.Now()
		got := make([][]byte, len(specs))
		for i := range specs {
			body, code, err := srv.post(bodies[i])
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("set-up request %v: HTTP %d %v: %s", specs[i], code, err, body)
			}
			got[i] = body
		}
		st.record(time.Since(start), map[string]time.Duration{"ready": ready, "warmup": time.Since(warm)})
		if refs == nil {
			refs = got
		}
		for i := range specs {
			if !bytes.Equal(got[i], refs[i]) {
				o.problem("set-up %d: report for %v differs from set-up 0", k, specs[i])
			}
		}

		// Slice k of the timed window, on this set-up's server.
		var profile chan []byte
		if cfg.trace {
			profile = make(chan []byte, 1)
			go func() {
				b, err := srv.get("/debug/pprof/profile?seconds=" + strconv.Itoa(max(1, cfg.seconds/setupReps)))
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: server profile:", err)
				}
				profile <- b
			}()
		}
		before, err := srv.counters()
		if err != nil {
			return nil, err
		}
		win.slice(cfg, serveClients, 100, op)
		after, err := srv.counters()
		if err != nil {
			return nil, err
		}
		addDelta(delta, before, after)
		r, err := peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		rss = max(rss, r)
		if cfg.trace {
			prof := <-profile
			sp, err := splitProfile(prof, layerServe)
			if err != nil {
				return nil, fmt.Errorf("server profile: %w", err)
			}
			split.merge(sp)
			profs = append(profs, prof)
		}
	}
	if n := shed(delta); n != 0 {
		o.problem("admission shed %v requests in the timed window", n)
	}

	// The references must also be what the SDK computes in-process.
	reps := make([]sim.Report, len(specs))
	for i, s := range specs {
		rep, err := sim.Run(ctx, runSpecOf(s))
		if err != nil {
			return nil, err
		}
		b, err := encodeLikeServer(rep)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, refs[i]) {
			o.problem("%v: bebop-serve's report differs from an in-process sim.Run", s)
		}
		reps[i] = rep
	}
	o.digest = reportDigest(reps)

	if !cfg.trace {
		o.addLoopMetrics("", win.results, win.elapsed, true)
		o.add("peak_rss_mib", "MiB", rss, 0)
		o.add("setup_s", "s", median(st.total), len(st.total))
		return o, nil
	}

	// Traced run: the window carried spans and server CPU profiles; now
	// the depth probe on the last server, then the split.
	o.addLoopMetrics("traced.", win.results, win.elapsed, true)
	o.add("admission.shed", "count", shed(delta), 0)
	o.add("core.proc_reuse_ratio", "ratio", procReuseRatio(delta), 0)
	o.add("setup.server_ready_ms", "ms", 1000*median(st.parts["ready"]), len(st.total))
	o.add("setup.warmup_s", "s", median(st.parts["warmup"]), len(st.total))
	o.add("setup.first_s", "s", st.total[0], 1)
	if err := detailedProbe(ctx, o, rec, func(i int) error {
		body, code, err := srv.post(bodies[i])
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", code, body)
		}
		return err
	}); err != nil {
		return nil, err
	}
	o.addProfileShares(split)
	if err := saveTrace(cfg, rec, profs); err != nil {
		return nil, err
	}
	o.fillAbsent()
	return o, nil
}

// saveTrace writes a traced run's spans and its CPU profiles, one per
// window slice, under the results directory.
func saveTrace(cfg config, rec *recorder, profs [][]byte) error {
	stem := filepath.Join(cfg.results, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := rec.writeJSONL(stem + ".spans.jsonl"); err != nil {
		return err
	}
	for k, p := range profs {
		if err := os.WriteFile(fmt.Sprintf("%s.slice%d.cpu.pprof", stem, k), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}
