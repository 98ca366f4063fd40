// Package faultinject is a build-tag-free failure-injection registry:
// production code declares named failure points (Fire calls compiled
// into the real IO and worker paths), and chaos tests — or an operator
// via the BEBOP_FAULTS environment variable — arm those points with
// deterministic trigger schedules. A disarmed registry costs one atomic
// load per Fire call, so the points stay in release builds and the
// chaos suite exercises exactly the binary that ships.
//
// A point fires according to its Plan: on the nth call, or on every nth
// call. When it fires it either returns an error (the caller propagates
// it like any IO failure), panics (exercising the recover ladders in
// engine/core), or sleeps (simulating a stuck worker so timeout paths
// can be proven).
//
// Points threaded through the simulator:
//
//	trace.checkpoint.read   checkpoint side-file open
//	trace.checkpoint.point  one side-file point's read
//	trace.checkpoint.write  checkpoint side-file encode/rename
//	trace.frame.decode      .bbt frame header/payload decode
//	engine.worker           engine job execution (inside the recover scope)
//	core.run                one detailed simulation (inside the recover scope)
//	core.interval           one sampled interval (inside the recover scope)
package faultinject

import (
	"errors"
	"fmt"
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
	// ModeError makes Fire return an ErrInjected-wrapped error naming
	// the point.
	ModeError Mode = iota
	// ModePanic makes Fire panic, exercising recover paths.
	ModePanic
	// ModeDelay makes Fire sleep for Plan.Sleep and return nil —
	// a stuck worker rather than a failed one.
	ModeDelay
)

// Plan is one point's trigger schedule. Fire triggers when either armed
// condition matches: call == Nth or call % Every == 0. The zero Plan
// never triggers.
type Plan struct {
	Mode Mode
	// Sleep is the ModeDelay duration.
	Sleep time.Duration
	// Nth fires on exactly the nth Fire call (1-based); 0 disables.
	Nth int
	// Every fires on every nth call (1-based); 0 disables.
	Every int
}

// point is one armed failure point.
type point struct {
	mu    sync.Mutex
	plan  Plan
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
	r.points[name] = &point{plan: p}
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
		return fmt.Errorf("faultinject: %q: %w", name, ErrInjected)
	}
}

// trigger evaluates the plan against the current call count. Caller
// holds pt.mu.
func (pt *point) trigger() bool {
	p := pt.plan
	return p.Nth > 0 && pt.calls == p.Nth || p.Every > 0 && pt.calls%p.Every == 0
}

// Fire evaluates a point on the Default registry.
func Fire(name string) error { return Default.Fire(name) }

// ArmFromSpec arms points on the registry from a compact spec string,
// the format the BEBOP_FAULTS environment variable uses:
//
//	point[:key=value]...[,point[:key=value]...]...
//
// Keys: mode (error|panic|delay), nth, every, sleep (a
// time.Duration). Example:
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
