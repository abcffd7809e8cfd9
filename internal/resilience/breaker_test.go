package resilience

import (
	"sync"
	"testing"
	"time"
)

// newTestBreaker builds a breaker on a fake clock: threshold 3, probe
// after 10s, one probe success to close.
func newTestBreaker(clk *FakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		ProbeInterval:    10 * time.Second,
		Clock:            clk,
	})
}

// TestBreakerTripsOnConsecutiveFailures walks the full lifecycle on a
// fake clock: closed through threshold-1 failures, open on the
// threshold'th, rejecting until the probe interval elapses, a single
// half-open probe, and closed again on probe success.
func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := newTestBreaker(clk)

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("failure %d: breaker rejected while closed", i)
		}
		b.Failure()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after 2/3 failures = %v, want closed", got)
	}
	b.Allow()
	b.Failure() // third consecutive failure trips it
	if got := b.State(); got != Open {
		t.Fatalf("state after 3/3 failures = %v, want open", got)
	}
	if got := b.Opened(); got != 1 {
		t.Fatalf("opened = %d, want 1", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before the probe interval")
	}

	clk.Advance(9 * time.Second)
	if b.Allow() {
		t.Fatal("open breaker allowed a call 1s early")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not admit the probe after the interval")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second call while the probe is in flight")
	}

	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a call after recovery")
	}
}

// TestBreakerHalfOpenFailureReopens requires a failed probe to re-arm the
// full probe interval.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := newTestBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(10 * time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if got := b.Opened(); got != 2 {
		t.Fatalf("opened = %d, want 2 (initial trip + failed probe)", got)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed a call without waiting out the interval again")
	}
	clk.Advance(10 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe not admitted after the re-armed interval")
	}
}

// TestBreakerSuccessResetsFailureStreak checks only *consecutive*
// failures trip the breaker.
func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := newTestBreaker(NewFakeClock(time.Unix(0, 0)))
	for round := 0; round < 4; round++ {
		b.Failure()
		b.Failure()
		b.Success() // breaks the streak at 2/3
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed: interleaved successes must reset the streak", got)
	}
}

// TestBreakerStateHasNoSideEffects pins that State observes without
// transitioning: an open breaker whose probe is due stays open until the
// next Allow.
func TestBreakerStateHasNoSideEffects(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := newTestBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(time.Minute)
	for i := 0; i < 3; i++ {
		if got := b.State(); got != Open {
			t.Fatalf("State() #%d = %v, want open (no side effects)", i, got)
		}
	}
	if !b.Allow() {
		t.Fatal("Allow must admit the overdue probe")
	}
}

// TestBreakerOnTransition records the transition sequence across a full
// trip/recover cycle.
func TestBreakerOnTransition(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	var got []string
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		ProbeInterval:    time.Second,
		Clock:            clk,
		OnTransition: func(from, to State) {
			got = append(got, from.String()+">"+to.String())
		},
	})
	b.Failure()
	clk.Advance(time.Second)
	b.Allow()
	b.Success()
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestBreakerConcurrentProbeGating hammers an open-with-due-probe breaker
// from many goroutines: exactly one may win the probe slot.
func TestBreakerConcurrentProbeGating(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := newTestBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(10 * time.Second)

	var wg sync.WaitGroup
	admitted := make(chan struct{}, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				admitted <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(admitted)
	n := 0
	for range admitted {
		n++
	}
	if n != 1 {
		t.Fatalf("%d goroutines admitted for one probe slot, want exactly 1", n)
	}
}

// TestStateString covers the log/health names.
func TestStateString(t *testing.T) {
	for want, s := range map[string]State{
		"closed": Closed, "open": Open, "half-open": HalfOpen, "unknown": State(99),
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
