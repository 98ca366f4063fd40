// Package admission is the front door of a bebop-serve node under
// public traffic: it decides, before any simulation work is scheduled,
// whether a request may proceed. Three independent mechanisms compose:
//
//   - a per-client token-bucket rate limiter (keyed by X-Client-ID or
//     the remote address), answering 429 with Retry-After when a client
//     exceeds its sustained rate;
//   - a gate, the one ledger of simulation work: it bounds running
//     simulations and the queue behind them, and load-sheds with 503
//     (plus a queue-depth estimate and Retry-After) instead of queueing
//     unboundedly — an overloaded node answers fast and cheap rather
//     than slowly for everyone;
//   - a drain switch flipped on SIGTERM: a draining node stops
//     admitting new work so the simulations the gate holds can finish.
//
// Every decision is exported through the telemetry registry
// (bebop_admission_requests_total by decision, live queued/active
// gauges), so shed rates are visible on /metrics before they become
// incidents.
package admission

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bebop/internal/telemetry"
)

var (
	mAdmitted = telemetry.Default.Counter(`bebop_admission_requests_total{decision="admitted"}`,
		"Admission decisions: admitted, or shed by rate limit, queue bound, or drain.")
	mShedRate = telemetry.Default.Counter(`bebop_admission_requests_total{decision="shed_rate"}`,
		"Admission decisions: admitted, or shed by rate limit, queue bound, or drain.")
	mShedQueue = telemetry.Default.Counter(`bebop_admission_requests_total{decision="shed_queue"}`,
		"Admission decisions: admitted, or shed by rate limit, queue bound, or drain.")
	mShedDrain = telemetry.Default.Counter(`bebop_admission_requests_total{decision="shed_drain"}`,
		"Admission decisions: admitted, or shed by rate limit, queue bound, or drain.")
	mQueuedG = telemetry.Default.Gauge("bebop_admission_queued",
		"Simulations holding a gate place, waiting for a slot.")
	mActiveG = telemetry.Default.Gauge("bebop_admission_active",
		"Simulations holding a gate slot right now.")
)

// ErrShed is wrapped by gate rejections so callers can map them to 503.
var ErrShed = errors.New("admission: load shed")

// ShedError reports a queue-bound rejection with the state that caused
// it, so the response can carry an actionable estimate.
type ShedError struct {
	Active, Queued int
	RetryAfter     time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: load shed (%d active, %d queued); retry in %s",
		e.Active, e.Queued, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return ErrShed }

// RateLimiter is a per-key token bucket: each key accrues Rate tokens
// per second up to Burst, and every Allow spends one. Buckets are
// created on first sight and bounded by MaxClients — at the cap, the
// least-recently-seen bucket is evicted (an attacker minting keys can
// reset its own bucket that way, but only by cycling through MaxClients
// other identities first).
type RateLimiter struct {
	rate, burst float64
	max         int

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter. rate <= 0 disables limiting (Allow
// always admits). burst <= 0 defaults to max(rate, 1); maxClients <= 0
// defaults to 4096.
func NewRateLimiter(rate, burst float64, maxClients int) *RateLimiter {
	if burst <= 0 {
		burst = math.Max(rate, 1)
	}
	if maxClients <= 0 {
		maxClients = 4096
	}
	return &RateLimiter{rate: rate, burst: burst, max: maxClients,
		buckets: map[string]*bucket{}}
}

// Allow spends one token from key's bucket. When the bucket is empty it
// reports false and how long until one token accrues.
func (l *RateLimiter) Allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= l.max {
			l.evictOldestLocked()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// evictOldestLocked drops the least-recently-seen bucket.
func (l *RateLimiter) evictOldestLocked() {
	var oldestKey string
	var oldest time.Time
	first := true
	for k, b := range l.buckets {
		if first || b.last.Before(oldest) {
			oldestKey, oldest, first = k, b.last, false
		}
	}
	delete(l.buckets, oldestKey)
}

// Clients reports how many buckets are tracked.
func (l *RateLimiter) Clients() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// Gate bounds concurrent simulations and the queue behind them. A
// simulation takes a place with Enter: past Concurrency+Queue places
// it sheds immediately, so the node's answer under overload is a fast
// 503, never an unbounded queue. The place is a queue place until
// Ticket.Wait claims one of the Concurrency slots, and Ticket.Done
// gives back whichever the ticket holds.
type Gate struct {
	slots     chan struct{}
	maxPlaces int64
	places    atomic.Int64 // slot holders plus waiters
}

// NewGate builds a gate running concurrency simultaneous simulations
// with up to queue waiters. concurrency <= 0 defaults to 4; queue < 0
// defaults to 4*concurrency.
func NewGate(concurrency, queue int) *Gate {
	if concurrency <= 0 {
		concurrency = 4
	}
	if queue < 0 {
		queue = 4 * concurrency
	}
	return &Gate{slots: make(chan struct{}, concurrency), maxPlaces: int64(concurrency + queue)}
}

// Ticket is one simulation's claim on a Gate: a queue place from Enter,
// a slot once Wait returns nil, nothing after Done.
type Ticket struct {
	g      *Gate
	active bool
}

// Enter takes a place for one simulation, or returns a *ShedError when
// every slot is busy and the queue is full.
func (g *Gate) Enter() (*Ticket, error) {
	if g.places.Add(1) > g.maxPlaces {
		g.places.Add(-1)
		active, queued := g.Depth()
		mShedQueue.Inc()
		return nil, &ShedError{Active: active, Queued: queued,
			RetryAfter: g.retryAfter(queued)}
	}
	mAdmitted.Inc()
	mQueuedG.Add(1)
	return &Ticket{g: g}, nil
}

// Wait blocks until the ticket holds a slot. It returns ctx.Err() when
// ctx ends first; the ticket then keeps its queue place until Done.
func (t *Ticket) Wait(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case t.g.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	t.active = true
	mQueuedG.Add(-1)
	mActiveG.Add(1)
	return nil
}

// Done gives back the slot or the queue place the ticket holds.
func (t *Ticket) Done() {
	if t.active {
		<-t.g.slots
		mActiveG.Add(-1)
	} else {
		mQueuedG.Add(-1)
	}
	t.g.places.Add(-1)
}

// Depth reports slot holders and the places waiting for a slot.
func (g *Gate) Depth() (active, queued int) {
	active = len(g.slots)
	return active, max(0, int(g.places.Load())-active)
}

// Concurrency reports the slot count.
func (g *Gate) Concurrency() int { return cap(g.slots) }

// retryAfter estimates when a slot should free up: one second per full
// wave of waiters ahead of the caller, floored at one second. It is a
// hint for clients, not a promise.
func (g *Gate) retryAfter(queued int) time.Duration {
	waves := (queued + cap(g.slots)) / cap(g.slots)
	if waves < 1 {
		waves = 1
	}
	return time.Duration(waves) * time.Second
}

// Config assembles a Controller.
type Config struct {
	// RatePerSec is the sustained per-client request rate (0 = no rate
	// limiting); Burst is the bucket size (0 = max(RatePerSec, 1)).
	RatePerSec float64
	Burst      float64
	// MaxClients bounds tracked rate-limit buckets (0 = 4096).
	MaxClients int
	// Concurrency bounds simultaneously running simulations (0 = 4);
	// Queue bounds waiters beyond that (-1 = 4*Concurrency, 0 = no
	// queue: shed as soon as every slot is busy).
	Concurrency int
	Queue       int
}

// Controller composes the rate limiter, the drain switch and the gate:
// Wrap applies the first two to every request on a simulation route,
// and Enter puts the simulation a request asks for through the gate.
type Controller struct {
	limiter  *RateLimiter
	gate     *Gate
	draining atomic.Bool
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	return &Controller{
		limiter: NewRateLimiter(cfg.RatePerSec, cfg.Burst, cfg.MaxClients),
		gate:    NewGate(cfg.Concurrency, cfg.Queue),
	}
}

// SetDraining flips the drain switch: a draining controller sheds every
// request with 503 so admitted simulations can finish and the node can
// exit.
func (c *Controller) SetDraining(v bool) { c.draining.Store(v) }

// Draining reports the drain switch.
func (c *Controller) Draining() bool { return c.draining.Load() }

// Depth reports the running and the queued simulations.
func (c *Controller) Depth() (active, queued int) { return c.gate.Depth() }

// Enter takes a gate place for one simulation. When the gate is full it
// answers 503 with Retry-After and the gate's depth, and returns nil.
func (c *Controller) Enter(w http.ResponseWriter) *Ticket {
	t, err := c.gate.Enter()
	var shed *ShedError
	if errors.As(err, &shed) {
		writeDenied(w, http.StatusServiceUnavailable, shed.RetryAfter, map[string]any{
			"error":       "server at capacity; request shed instead of queued",
			"active":      shed.Active,
			"queue_depth": shed.Queued,
		})
		return nil
	}
	return t
}

// Limits describes the configured bounds for /healthz.
func (c *Controller) Limits() map[string]any {
	active, queued := c.gate.Depth()
	return map[string]any{
		"rate_per_sec": c.limiter.rate,
		"burst":        c.limiter.burst,
		"concurrency":  c.gate.Concurrency(),
		"queue":        c.gate.maxPlaces - int64(c.gate.Concurrency()),
		"active":       active,
		"queued":       queued,
		"rate_clients": c.limiter.Clients(),
	}
}

// ClientKey identifies the client for rate limiting: the X-Client-ID
// header when present (trusted deployments put an API key or account id
// there), else the remote address without its ephemeral port.
func ClientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// Wrap applies the request checks in front of next: drain → 503 +
// Retry-After, rate limit → 429 + Retry-After. The gate is not here:
// next takes a place with Enter once it holds a valid simulation.
func (c *Controller) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c.draining.Load() {
			mShedDrain.Inc()
			writeDenied(w, http.StatusServiceUnavailable, time.Second, map[string]any{
				"error": "server is draining; retry against another node",
			})
			return
		}
		if ok, retry := c.limiter.Allow(ClientKey(r), time.Now()); !ok {
			mShedRate.Inc()
			writeDenied(w, http.StatusTooManyRequests, retry, map[string]any{
				"error": fmt.Sprintf("client rate limit exceeded (%g req/s sustained)", c.limiter.rate),
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// writeDenied emits a JSON rejection with a Retry-After hint (whole
// seconds, rounded up, floored at 1).
func writeDenied(w http.ResponseWriter, code int, retry time.Duration, body map[string]any) {
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body["retry_after_seconds"] = secs
	json.NewEncoder(w).Encode(body)
}
