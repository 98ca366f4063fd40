// Package faultinject is a build-tag-free failure-injection registry:
// production code declares named failure points (Fire calls compiled
// into the real IO and worker paths), and chaos tests — or an operator
// via the BEBOP_FAULTS environment variable — arm those points with
// deterministic trigger schedules. A disarmed registry costs one atomic
// load per Fire call, so the points stay in release builds and the
// chaos suite exercises exactly the binary that ships.
//
// A point fires according to its Plan: on the nth call, on every nth
// call, or with a seeded probability per call — optionally bounded by a
// total fire budget. When it fires it either returns an error (the
// caller propagates it like any IO failure), panics (exercising the
// recover ladders in engine/core), or sleeps (simulating a stuck worker
// so timeout paths can be proven).
//
// Points threaded through the simulator:
//
//	trace.checkpoint.read   checkpoint side-file open
//	trace.checkpoint.point  one side-file point's read and decode
//	trace.checkpoint.write  checkpoint side-file encode/rename
//	trace.frame.decode      .bbt frame header/payload decode
//	engine.worker           engine job execution (inside the recover scope)
//	core.run                one detailed simulation (inside the recover scope)
//	core.interval           one sampled interval (inside the recover scope)
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected error wraps; callers that
// need to distinguish injected failures from real ones (tests, mostly)
// match it with errors.Is.
var ErrInjected = errors.New("injected fault")

// Mode selects what a triggered point does.
type Mode int

const (
	// ModeError makes Fire return the Plan's error (default: an
	// ErrInjected-wrapped error naming the point).
	ModeError Mode = iota
	// ModePanic makes Fire panic, exercising recover paths.
	ModePanic
	// ModeDelay makes Fire sleep for Plan.Sleep and return nil —
	// a stuck worker rather than a failed one.
	ModeDelay
)

// Plan is one point's trigger schedule. Fire triggers when any armed
// condition matches: call == Nth, call % Every == 0, or a seeded coin
// with probability P. Fires stops triggering after Limit fires (0 = no
// bound). The zero Plan never triggers.
type Plan struct {
	Mode Mode
	// Err is returned by ModeError fires; nil selects a default error
	// wrapping ErrInjected.
	Err error
	// Sleep is the ModeDelay duration.
	Sleep time.Duration
	// Nth fires on exactly the nth Fire call (1-based); 0 disables.
	Nth int
	// Every fires on every nth call (1-based); 0 disables.
	Every int
	// P fires with probability P per call, drawn from a rand seeded
	// with Seed — the same seed replays the same fire pattern.
	P    float64
	Seed int64
	// Limit caps total fires (0 = unlimited).
	Limit int
}

// point is one armed failure point.
type point struct {
	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	calls int
	fires int
}

// Registry holds armed failure points. The zero value is not usable;
// use NewRegistry or the package-level Default.
type Registry struct {
	armed  atomic.Int32 // number of armed points; 0 short-circuits Fire
	mu     sync.Mutex
	points map[string]*point
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{points: map[string]*point{}}
}

// Default is the process-wide registry every production Fire call uses.
var Default = NewRegistry()

// Arm installs (or replaces) the plan for a named point.
func (r *Registry) Arm(name string, p Plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.points[name]; !ok {
		r.armed.Add(1)
	}
	pt := &point{plan: p}
	if p.P > 0 {
		pt.rng = rand.New(rand.NewSource(p.Seed))
	}
	r.points[name] = pt
}

// Reset disarms every point.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points = map[string]*point{}
	r.armed.Store(0)
}

// Calls reports how many times the named point has been evaluated
// since it was armed; 0 when disarmed.
func (r *Registry) Calls(name string) int {
	r.mu.Lock()
	pt := r.points[name]
	r.mu.Unlock()
	if pt == nil {
		return 0
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.calls
}

// Fires reports how many times the named point has triggered.
func (r *Registry) Fires(name string) int {
	r.mu.Lock()
	pt := r.points[name]
	r.mu.Unlock()
	if pt == nil {
		return 0
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.fires
}

// Armed lists the armed point names, sorted.
func (r *Registry) Armed() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.points))
	for n := range r.points {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fire evaluates the named failure point. Disarmed (the overwhelmingly
// common case) it is a single atomic load. Armed, it applies the plan:
// returns the injected error, panics, or sleeps, according to Mode.
func (r *Registry) Fire(name string) error {
	if r.armed.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	pt := r.points[name]
	r.mu.Unlock()
	if pt == nil {
		return nil
	}

	pt.mu.Lock()
	pt.calls++
	fire := pt.trigger()
	if fire {
		pt.fires++
	}
	plan := pt.plan
	pt.mu.Unlock()
	if !fire {
		return nil
	}

	switch plan.Mode {
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %q (call %d)", name, r.Calls(name)))
	case ModeDelay:
		time.Sleep(plan.Sleep)
		return nil
	default:
		if plan.Err != nil {
			return plan.Err
		}
		return fmt.Errorf("faultinject: %q: %w", name, ErrInjected)
	}
}

// trigger evaluates the plan against the current call count. Caller
// holds pt.mu.
func (pt *point) trigger() bool {
	p := pt.plan
	if p.Limit > 0 && pt.fires >= p.Limit {
		return false
	}
	if p.Nth > 0 && pt.calls == p.Nth {
		return true
	}
	if p.Every > 0 && pt.calls%p.Every == 0 {
		return true
	}
	if p.P > 0 && pt.rng != nil && pt.rng.Float64() < p.P {
		return true
	}
	return false
}

// Fire evaluates a point on the Default registry.
func Fire(name string) error { return Default.Fire(name) }

// ArmFromSpec arms points on the registry from a compact spec string,
// the format the BEBOP_FAULTS environment variable uses:
//
//	point[:key=value]...[,point[:key=value]...]...
//
// Keys: mode (error|panic|delay), nth, every, p, seed, limit,
// sleep (a time.Duration). Example:
//
//	BEBOP_FAULTS='core.run:mode=panic:nth=1,trace.frame.decode:every=100'
//
// An empty spec arms nothing. Malformed specs are an error; nothing is
// armed when any clause fails to parse.
func (r *Registry) ArmFromSpec(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	type armed struct {
		name string
		plan Plan
	}
	var all []armed
	for _, clause := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(clause), ":")
		if parts[0] == "" {
			return fmt.Errorf("faultinject: empty point name in clause %q", clause)
		}
		a := armed{name: parts[0]}
		for _, kv := range parts[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("faultinject: %q: want key=value, got %q", a.name, kv)
			}
			var err error
			switch k {
			case "mode":
				switch v {
				case "error":
					a.plan.Mode = ModeError
				case "panic":
					a.plan.Mode = ModePanic
				case "delay":
					a.plan.Mode = ModeDelay
				default:
					err = fmt.Errorf("unknown mode %q", v)
				}
			case "nth":
				a.plan.Nth, err = strconv.Atoi(v)
			case "every":
				a.plan.Every, err = strconv.Atoi(v)
			case "limit":
				a.plan.Limit, err = strconv.Atoi(v)
			case "p":
				a.plan.P, err = strconv.ParseFloat(v, 64)
			case "seed":
				a.plan.Seed, err = strconv.ParseInt(v, 10, 64)
			case "sleep":
				a.plan.Sleep, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return fmt.Errorf("faultinject: %q: %v", a.name, err)
			}
		}
		all = append(all, a)
	}
	for _, a := range all {
		r.Arm(a.name, a.plan)
	}
	return nil
}
