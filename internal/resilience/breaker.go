package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker state. The numeric values are part of the
// monitoring contract: sortinghatd_breaker_state exposes them directly.
type State int

// The three breaker states.
const (
	// Closed is the healthy state: every call is allowed and consecutive
	// failures are counted toward the trip threshold.
	Closed State = iota
	// Open is the tripped state: every call is rejected until the probe
	// interval elapses.
	Open
	// HalfOpen is the probing state: a single call is allowed through; its
	// outcome decides between Closed and Open.
	HalfOpen
)

// String names the state for logs and health payloads.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker defaults.
const (
	DefaultFailureThreshold = 5
	DefaultProbeInterval    = 5 * time.Second
)

// BreakerConfig tunes a Breaker. The zero value takes the documented
// defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// from Closed to Open. 0 means DefaultFailureThreshold.
	FailureThreshold int
	// ProbeInterval is how long the breaker stays Open before allowing a
	// half-open probe. 0 means DefaultProbeInterval.
	ProbeInterval time.Duration
	// Clock supplies the probe schedule's time source. nil means
	// SystemClock.
	Clock Clock
	// OnTransition, when non-nil, is called on every state change. It runs
	// with the breaker's lock held, so it must not call back into the
	// breaker.
	OnTransition func(from, to State)
}

// normalized fills in the documented defaults.
func (c BreakerConfig) normalized() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = DefaultFailureThreshold
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.Clock == nil {
		c.Clock = SystemClock()
	}
	return c
}

// Breaker is a three-state circuit breaker. Callers ask Allow before the
// guarded operation and report the outcome with Success or Failure; the
// breaker trips Open after FailureThreshold consecutive failures, rejects
// calls for ProbeInterval, then lets a single probe through (HalfOpen)
// whose outcome either closes or re-opens it. Every Allow that returns
// true must be answered by exactly one Success or Failure, or a
// half-open breaker never admits another probe. All methods are safe
// for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State     // HalfOpen means the one probe is in flight
	failures int       // consecutive failures while Closed
	probeAt  time.Time // when Open may transition to HalfOpen
	opened   int64     // lifetime Closed/HalfOpen -> Open transitions
}

// NewBreaker returns a Closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.normalized()}
}

// Allow reports whether the guarded operation may run now. While Open it
// returns false until the probe interval has elapsed, at which point the
// breaker moves to HalfOpen and admits exactly one probe; concurrent
// callers keep getting false until that probe's outcome is reported.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Clock.Now().Before(b.probeAt) {
			return false
		}
		b.transition(HalfOpen)
		return true
	default: // HalfOpen: the probe is out
		return false
	}
}

// Success reports a successful guarded operation.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		b.transition(Closed)
	case Open:
		// A straggler from before the trip finished late; ignore it.
	}
}

// Failure reports a failed guarded operation (error or recovered panic).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		b.trip()
	case Open:
		// Stragglers while Open don't re-arm the probe timer.
	}
}

// trip opens the breaker and schedules the next probe. Callers hold b.mu.
func (b *Breaker) trip() {
	b.transition(Open)
	b.probeAt = b.cfg.Clock.Now().Add(b.cfg.ProbeInterval)
	b.opened++
}

// transition moves to state to, resetting the counters the new state
// relies on. Callers hold b.mu.
func (b *Breaker) transition(to State) {
	from := b.state
	b.state = to
	b.failures = 0
	if b.cfg.OnTransition != nil && from != to {
		b.cfg.OnTransition(from, to)
	}
}

// State returns the current state without side effects: an Open breaker
// whose probe is due stays Open until the next Allow.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opened returns the lifetime number of trips to Open.
func (b *Breaker) Opened() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opened
}
