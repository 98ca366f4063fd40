// Package admission is the front door of a bebop-serve node under
// public traffic: it decides, before any simulation work is scheduled,
// whether a request may proceed. Three independent mechanisms compose:
//
//   - a per-client token-bucket rate limiter (keyed by X-Client-ID or
//     the remote address), answering 429 with Retry-After when a client
//     exceeds its sustained rate;
//   - a concurrency + queue-depth gate that load-sheds with 503 (plus a
//     queue-depth estimate and Retry-After) instead of queueing
//     unboundedly — an overloaded node answers fast and cheap rather
//     than slowly for everyone;
//   - a drain switch flipped on SIGTERM: a draining node stops
//     admitting new work so in-flight runs can finish.
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
		"Requests admitted past the rate limiter, waiting for a concurrency slot.")
	mActiveG = telemetry.Default.Gauge("bebop_admission_active",
		"Requests holding a concurrency slot right now.")
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

// Gate bounds concurrent admitted requests and the queue behind them.
// Past Concurrency, requests wait; past Concurrency+Queue, Acquire
// sheds immediately — the node's answer under overload is a fast 503,
// never an unbounded queue.
type Gate struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
}

// NewGate builds a gate admitting concurrency simultaneous holders with
// up to queue waiters. concurrency <= 0 defaults to 16; queue < 0
// defaults to 4*concurrency.
func NewGate(concurrency, queue int) *Gate {
	if concurrency <= 0 {
		concurrency = 16
	}
	if queue < 0 {
		queue = 4 * concurrency
	}
	return &Gate{slots: make(chan struct{}, concurrency), maxQueue: int64(queue)}
}

// Acquire claims a slot, waiting in the bounded queue if necessary.
// It returns a release function on success; a *ShedError when the queue
// is full; or ctx.Err() when the caller gave up while queued.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	release = func() { <-g.slots }
	select {
	case g.slots <- struct{}{}:
		return release, nil
	default:
	}
	if q := g.queued.Add(1); q > g.maxQueue {
		g.queued.Add(-1)
		active, queued := g.Depth()
		return nil, &ShedError{Active: active, Queued: queued,
			RetryAfter: g.retryAfter(queued)}
	}
	mQueuedG.Add(1)
	defer func() {
		g.queued.Add(-1)
		mQueuedG.Add(-1)
	}()
	select {
	case g.slots <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Depth reports current holders and waiters.
func (g *Gate) Depth() (active, queued int) {
	return len(g.slots), int(g.queued.Load())
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
	// Concurrency bounds simultaneously admitted requests (0 = 16);
	// Queue bounds waiters beyond that (-1 = 4*Concurrency, 0 = no
	// queue: shed as soon as every slot is busy).
	Concurrency int
	Queue       int
}

// Controller composes the rate limiter, the gate and the drain switch
// into one admission decision, exposed as HTTP middleware via Wrap.
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
// request with 503 so in-flight work can finish and the node can exit.
func (c *Controller) SetDraining(v bool) { c.draining.Store(v) }

// Limits describes the configured bounds for /healthz.
func (c *Controller) Limits() map[string]any {
	active, queued := c.gate.Depth()
	return map[string]any{
		"rate_per_sec": c.limiter.rate,
		"burst":        c.limiter.burst,
		"concurrency":  c.gate.Concurrency(),
		"queue":        c.gate.maxQueue,
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

// Wrap applies the admission decision in front of next: drain → 503,
// rate limit → 429 + Retry-After, queue overflow → 503 + Retry-After +
// queue depth. Admitted requests hold a gate slot for their duration.
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
		release, err := c.gate.Acquire(r.Context())
		if err != nil {
			var shed *ShedError
			if errors.As(err, &shed) {
				mShedQueue.Inc()
				writeDenied(w, http.StatusServiceUnavailable, shed.RetryAfter, map[string]any{
					"error":       "server at capacity; request shed instead of queued",
					"active":      shed.Active,
					"queue_depth": shed.Queued,
				})
			}
			// ctx.Err(): the client is gone; nothing to write.
			return
		}
		defer release()
		mAdmitted.Inc()
		mActiveG.Add(1)
		defer mActiveG.Add(-1)
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
