package gateway

import (
	"math/rand"
	"net/http"
	"sync"
	"time"

	"sortinghat/internal/resilience"
)

// DefaultReplicaInflight is the ceiling, and the starting value, of each
// replica's adaptive concurrency limit.
const DefaultReplicaInflight = 32

// Fixed forwarding-control constants: no deployment has tuned them, so
// they are not options.
const (
	limitCut    = 0.5                    // factor applied to the limit on an overload answer
	cutCooldown = time.Second            // minimum spacing between two cuts
	backoffBase = 100 * time.Millisecond // pre-jitter delay of the first shed strike
)

// controller decides whether one replica is offered a forward leg and
// learns from how each leg ended. Three rules share its state under one
// mutex:
//
//   - Breaker: threshold consecutive failures trip the replica; once the
//     probe interval has passed it admits one trial leg, whose success
//     closes it and whose failure trips it again.
//   - AIMD concurrency limit: +1/limit per success, ×limitCut per
//     overload answer (429, 503, 504) at most once per cutCooldown,
//     floored at 1 and capped at the configured ceiling.
//   - Shed backoff: a 429 or 503 pushes the next leg out by the later of
//     the replica's Retry-After and a half-jittered exponential delay
//     from backoffBase, capped at the probe interval.
//
// The breaker's open window and the backoff window are one notBefore
// time. Every acquire that succeeds is settled by exactly one report
// (forward defers it), so neither the in-flight count nor the trial
// slot can leak: a canceled leg frees both and is not evidence against
// the replica.
type controller struct {
	threshold int
	probe     time.Duration
	max       float64
	clock     resilience.Clock

	mu        sync.Mutex
	rng       *rand.Rand // backoff jitter, seeded per replica
	limit     float64
	inflight  int
	lastCut   time.Time
	failures  int       // consecutive failed legs
	strikes   int       // shed answers since the last success
	notBefore time.Time // no leg before this: open window or shed backoff
	tripped   bool      // failures reached threshold; only a trial leg may go
	trial     bool      // the trial leg is in flight
}

// newController builds a closed, wide-open controller from cfg's
// forwarding options (already normalized); seed fixes its jitter.
func newController(cfg Config, seed int64) *controller {
	return &controller{
		threshold: cfg.FailureThreshold,
		probe:     cfg.BreakerProbe,
		max:       float64(cfg.ReplicaInflight),
		clock:     cfg.Clock,
		rng:       rand.New(rand.NewSource(seed)),
		limit:     float64(cfg.ReplicaInflight),
	}
}

// acquire reserves one leg on the replica, or reports ok false when it
// must not be offered load now: inside its notBefore window, at its
// concurrency limit, or tripped with the trial leg already out. trial
// marks the leg that holds a tripped replica's one trial slot.
func (c *controller) acquire() (trial, ok bool) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if now.Before(c.notBefore) || c.inflight >= int(c.limit) || c.tripped && c.trial {
		return false, false
	}
	c.inflight++
	c.trial = c.tripped
	return c.tripped, true
}

// report settles a leg reserved by acquire with its outcome: success
// (a.err nil), canceled, or failure — an overload failure when a.status
// is 429, 503 or 504. It reports whether the leg armed a backoff window.
func (c *controller) report(trial bool, a *shardAttempt) (armed bool) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	if trial {
		c.trial = false
	}
	if a.err == nil {
		c.limit = min(c.limit+1/c.limit, c.max)
		c.failures, c.strikes, c.notBefore = 0, 0, time.Time{}
		c.tripped, c.trial = false, false
		return false
	}
	if a.canceled {
		return false
	}
	c.failures++
	if trial || !c.tripped && c.failures >= c.threshold {
		c.tripped = true
		c.wait(now.Add(c.probe))
	}
	switch a.status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		d := min(backoffBase<<min(c.strikes, 30), c.probe)
		c.strikes++
		// Half-jitter: keep at least half the exponential delay so the
		// schedule still backs off, spread the rest to decorrelate peers.
		c.wait(now.Add(max(a.retryAfter, d/2+time.Duration(c.rng.Int63n(int64(d/2)+1)))))
		armed = true
	case http.StatusGatewayTimeout:
	default:
		return false
	}
	if c.lastCut.IsZero() || now.Sub(c.lastCut) >= cutCooldown {
		c.lastCut = now
		c.limit = max(c.limit*limitCut, 1)
	}
	return armed
}

// wait pushes notBefore out to t, never pulling it in. Callers hold c.mu.
func (c *controller) wait(t time.Time) {
	if t.After(c.notBefore) {
		c.notBefore = t
	}
}

// ctlView is one consistent sample of a controller, for routing,
// /metrics and /healthz.
type ctlView struct {
	state     resilience.State // closed; open while tripped; half-open while the trial leg is out
	limit     int
	inflight  int
	inBackoff bool // inside a window armed by a shed answer
}

// view samples the controller.
func (c *controller) view() ctlView {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	v := ctlView{
		limit:     int(c.limit),
		inflight:  c.inflight,
		inBackoff: c.strikes > 0 && now.Before(c.notBefore),
	}
	switch {
	case c.trial:
		v.state = resilience.HalfOpen
	case c.tripped:
		v.state = resilience.Open
	}
	return v
}

// class buckets the sample for candidate ordering: 2 route around (open),
// 1 deprioritize (trial out, backing off, or at its limit), 0 route
// normally.
func (v ctlView) class() int {
	switch {
	case v.state == resilience.Open:
		return 2
	case v.state == resilience.HalfOpen, v.inBackoff, v.inflight >= v.limit:
		return 1
	default:
		return 0
	}
}
