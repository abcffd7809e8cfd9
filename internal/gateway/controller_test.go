package gateway

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortinghat/internal/resilience"
)

// TestController table-drives one replica's forwarding controller on a
// fake clock: the AIMD limit, the shed backoff, the breaker, and the
// one-report-per-acquire contract that keeps a trial slot from leaking.
func TestController(t *testing.T) {
	var (
		success  = shardAttempt{}
		failed   = shardAttempt{err: errors.New("boom"), status: http.StatusInternalServerError}
		timedOut = shardAttempt{err: errors.New("slow"), status: http.StatusGatewayTimeout}
		canceled = shardAttempt{err: context.Canceled, canceled: true}
	)
	shed := func(hint time.Duration) shardAttempt {
		return shardAttempt{err: errors.New("shed"), status: http.StatusTooManyRequests, retryAfter: hint}
	}
	newCtl := func(threshold int, probe time.Duration, inflight int, seed int64) (*controller, *resilience.FakeClock) {
		clk := resilience.NewFakeClock(time.Unix(0, 0))
		cfg := Config{FailureThreshold: threshold, BreakerProbe: probe, ReplicaInflight: inflight, Clock: clk}
		return newController(cfg, seed), clk
	}
	// leg acquires one leg and settles it with a, returning whether it
	// armed the backoff; a refused leg fails the test.
	leg := func(t *testing.T, c *controller, a shardAttempt) bool {
		t.Helper()
		trial, ok := c.acquire()
		if !ok {
			t.Fatal("controller refused a leg")
		}
		return c.report(trial, &a)
	}
	// ready reports whether a leg would be admitted now, holding none.
	ready := func(c *controller) bool {
		trial, ok := c.acquire()
		if ok {
			c.report(trial, &canceled)
		}
		return ok
	}
	// waitLeft is how long the controller refuses legs from now.
	waitLeft := func(c *controller) time.Duration { return c.notBefore.Sub(c.clock.Now()) }

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"AIMDStartsWideOpen", func(t *testing.T) {
			c, _ := newCtl(100, time.Second, 4, 1)
			if got := c.view().limit; got != 4 {
				t.Fatalf("fresh limit = %d, want the ceiling 4", got)
			}
			for i := 0; i < 4; i++ {
				if _, ok := c.acquire(); !ok {
					t.Fatalf("acquire %d refused under limit 4", i)
				}
			}
			if _, ok := c.acquire(); ok {
				t.Fatal("5th acquire granted at limit 4")
			}
			if got := c.view().class(); got != 1 {
				t.Errorf("class at the limit = %d, want 1 (saturated)", got)
			}
			c.report(false, &canceled)
			if _, ok := c.acquire(); !ok {
				t.Fatal("acquire refused after a leg settled")
			}
		}},
		{"AIMDMultiplicativeCut", func(t *testing.T) {
			c, clk := newCtl(100, time.Second, 16, 1)
			for i := 0; i < 10; i++ {
				leg(t, c, timedOut)
			}
			if got := c.view().limit; got != 8 {
				t.Errorf("limit after an overload burst = %d, want one cut to 8", got)
			}
			clk.Advance(cutCooldown)
			leg(t, c, timedOut)
			if got := c.view().limit; got != 4 {
				t.Errorf("limit after the cooldown elapsed = %d, want 4", got)
			}
		}},
		{"AIMDFloor", func(t *testing.T) {
			c, clk := newCtl(100, time.Second, 8, 1)
			for i := 0; i < 10; i++ {
				leg(t, c, timedOut)
				clk.Advance(cutCooldown)
			}
			if got := c.view().limit; got != 1 {
				t.Errorf("limit after sustained overload = %d, want floor 1", got)
			}
			if !ready(c) {
				t.Error("floor limit must still admit work")
			}
		}},
		{"AIMDAdditiveRecovery", func(t *testing.T) {
			c, _ := newCtl(100, time.Second, 4, 1)
			leg(t, c, timedOut) // 4 -> 2
			if got := c.view().limit; got != 2 {
				t.Fatalf("limit after cut = %d, want 2", got)
			}
			leg(t, c, success)
			leg(t, c, success) // 2 + 1/2 + 1/2.5 = 2.9 — still reads 2
			if got := c.view().limit; got != 2 {
				t.Errorf("limit mid-window = %d, want still 2", got)
			}
			leg(t, c, success) // 2.9 + 1/2.9 = 3.24...
			if got := c.view().limit; got != 3 {
				t.Errorf("limit after a full window of successes = %d, want 3", got)
			}
			for i := 0; i < 100; i++ {
				leg(t, c, success)
			}
			if got := c.view().limit; got != 4 {
				t.Errorf("limit after sustained success = %d, want the ceiling 4", got)
			}
		}},
		{"BackoffExponentialJittered", func(t *testing.T) {
			c, clk := newCtl(100, time.Second, 32, 42)
			if !ready(c) {
				t.Fatal("fresh controller must be ready")
			}
			armed := 0
			want := backoffBase
			for strike := 0; strike < 3; strike++ {
				if leg(t, c, shed(0)) {
					armed++
				}
				d := waitLeft(c)
				if d < want/2 || d > want {
					t.Fatalf("strike %d delay = %v, want within [%v, %v]", strike, d, want/2, want)
				}
				if !c.view().inBackoff || ready(c) {
					t.Fatalf("strike %d: ready immediately after a shed answer", strike)
				}
				clk.Advance(d - time.Millisecond)
				if ready(c) {
					t.Fatalf("strike %d: ready 1ms before the not-before time", strike)
				}
				clk.Advance(time.Millisecond)
				if !ready(c) || c.view().inBackoff {
					t.Fatalf("strike %d: not ready once the delay elapsed", strike)
				}
				want *= 2
			}
			if armed != 3 {
				t.Errorf("%d legs armed the backoff, want 3", armed)
			}
		}},
		{"BackoffHonorsRetryAfter", func(t *testing.T) {
			c, clk := newCtl(100, time.Minute, 32, 1)
			leg(t, c, shed(2*time.Second))
			if d := waitLeft(c); d != 2*time.Second {
				t.Fatalf("a 2s Retry-After applied %v, want the hint verbatim", d)
			}
			clk.Advance(1900 * time.Millisecond)
			if ready(c) {
				t.Fatal("ready before the backend's Retry-After elapsed")
			}
			clk.Advance(101 * time.Millisecond)
			if !ready(c) {
				t.Fatal("not ready after the Retry-After elapsed")
			}
			// A hint smaller than the exponential schedule does not shrink it.
			c2, _ := newCtl(100, time.Minute, 32, 1)
			leg(t, c2, shed(time.Millisecond))
			if d := waitLeft(c2); d < backoffBase/2 {
				t.Errorf("tiny hint shrank the exponential delay to %v", d)
			}
		}},
		{"BackoffResetAndCap", func(t *testing.T) {
			c, clk := newCtl(100, 300*time.Millisecond, 32, 7)
			for i := 0; i < 10; i++ {
				leg(t, c, shed(0))
				if d := waitLeft(c); d > 300*time.Millisecond {
					t.Fatalf("strike %d delay = %v, past the 300ms probe-interval cap", i, d)
				}
				clk.Advance(time.Second)
			}
			leg(t, c, success)
			leg(t, c, shed(0))
			if d := waitLeft(c); d > backoffBase {
				t.Errorf("delay after a success = %v, want back on the first-strike schedule (<= %v)", d, backoffBase)
			}
			clk.Advance(time.Second)
			leg(t, c, success)
			if c.view().inBackoff || !c.notBefore.IsZero() {
				t.Error("a success must clear the not-before time")
			}
		}},
		{"BackoffSeededDeterminism", func(t *testing.T) {
			a, clkA := newCtl(100, 5*time.Second, 32, 99)
			b, clkB := newCtl(100, 5*time.Second, 32, 99)
			for i := 0; i < 5; i++ {
				leg(t, a, shed(0))
				leg(t, b, shed(0))
				if da, db := waitLeft(a), waitLeft(b); da != db {
					t.Fatalf("strike %d: same seed, different delays (%v vs %v)", i, da, db)
				}
				clkA.Advance(10 * time.Second)
				clkB.Advance(10 * time.Second)
			}
		}},
		{"OnlyShedArmsBackoff", func(t *testing.T) {
			c, _ := newCtl(100, time.Second, 32, 1)
			if leg(t, c, timedOut) || leg(t, c, failed) || c.view().inBackoff || !ready(c) {
				t.Error("a 504 or a plain failure armed the backoff")
			}
			if !leg(t, c, shed(0)) || !c.view().inBackoff || ready(c) {
				t.Error("a 429 did not arm the backoff")
			}
		}},
		{"SuccessResetsFailureStreak", func(t *testing.T) {
			c, _ := newCtl(3, time.Second, 32, 1)
			for round := 0; round < 4; round++ {
				leg(t, c, failed)
				leg(t, c, failed)
				leg(t, c, success) // breaks the streak at 2/3
			}
			if got := c.view().state; got != resilience.Closed {
				t.Fatalf("state = %v, want closed: interleaved successes must reset the streak", got)
			}
		}},
		{"BreakerAdmitsOneTrial", func(t *testing.T) {
			c, clk := newCtl(3, 10*time.Second, 32, 1)
			leg(t, c, failed)
			leg(t, c, failed)
			if got := c.view().state; got != resilience.Closed {
				t.Fatalf("state after 2/3 failures = %v, want closed", got)
			}
			leg(t, c, failed)
			if v := c.view(); v.state != resilience.Open || v.class() != 2 || ready(c) {
				t.Fatalf("after 3/3 failures: state %v, class %d; want open, routed around, refusing legs", v.state, v.class())
			}
			clk.Advance(10 * time.Second)
			trial, ok := c.acquire()
			if !ok || !trial {
				t.Fatalf("acquire after the probe interval = (trial %v, ok %v), want the trial leg", trial, ok)
			}
			if v := c.view(); v.state != resilience.HalfOpen || v.class() != 1 {
				t.Errorf("with the trial out: state %v, class %d; want half-open, deprioritized", v.state, v.class())
			}
			if _, ok := c.acquire(); ok {
				t.Fatal("a second leg was admitted while the trial is out")
			}
			c.report(trial, &success)
			if got := c.view().state; got != resilience.Closed || !ready(c) {
				t.Errorf("state after the trial succeeded = %v, want closed and admitting", got)
			}
		}},
		{"TrialFailureTripsAgain", func(t *testing.T) {
			c, clk := newCtl(1, 10*time.Second, 32, 1)
			leg(t, c, failed)
			clk.Advance(10 * time.Second)
			trial, _ := c.acquire()
			c.report(trial, &failed)
			if got := c.view().state; got != resilience.Open || ready(c) {
				t.Fatalf("state after a failed trial = %v, want open and refusing", got)
			}
			clk.Advance(10 * time.Second)
			if !ready(c) {
				t.Error("no new trial one probe interval after a failed one")
			}
		}},
		{"CanceledTrialFreesSlot", func(t *testing.T) {
			c, clk := newCtl(1, 10*time.Second, 32, 1)
			leg(t, c, failed)
			clk.Advance(10 * time.Second)
			trial, _ := c.acquire()
			c.report(trial, &canceled)
			if v := c.view(); v.state != resilience.Open || v.inflight != 0 {
				t.Fatalf("after a canceled trial: state %v, inflight %d; want open, none in flight", v.state, v.inflight)
			}
			// Not evidence: the next trial is due at once, not a probe
			// interval later.
			trial, ok := c.acquire()
			if !ok || !trial {
				t.Fatalf("acquire after a canceled trial = (trial %v, ok %v), want a new trial", trial, ok)
			}
		}},
		{"ConcurrentLegsSettle", func(t *testing.T) {
			c, clk := newCtl(2, time.Millisecond, 4, 1)
			outcomes := []shardAttempt{success, failed, timedOut, shed(0), canceled}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						if trial, ok := c.acquire(); ok {
							a := outcomes[(w+i)%len(outcomes)]
							c.report(trial, &a)
						}
						_ = c.view().class()
						clk.Advance(time.Millisecond)
					}
				}(w)
			}
			wg.Wait()
			if v := c.view(); v.inflight != 0 || v.state == resilience.HalfOpen {
				t.Errorf("after every leg settled: inflight %d, state %v; want 0 and no trial out", v.inflight, v.state)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestTrippedReplicaRecoversPastBackoff is the regression for a trial
// slot stranded by a backoff skip: one replica, tripped by a single 429
// carrying Retry-After: 10. Six seconds on, the breaker's probe
// interval has passed but the replica's own hint has not, so no leg may
// go — and the refused attempt must not claim the trial. A minute on,
// the replica must serve again, undegraded.
func TestTrippedReplicaRecoversPastBackoff(t *testing.T) {
	addr, calls := stubReplica(t, func(n int64, w http.ResponseWriter, _ *http.Request) bool {
		if n > 1 {
			return false
		}
		w.Header().Set("Retry-After", "10")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
		return true
	})
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	g := newTestGateway(t, []string{addr}, func(c *Config) {
		c.FailureThreshold = 1
		c.Clock = clk
	})
	req := testBatch(3)

	_, resp := postBatch(t, g.Handler(), req)
	if resp.DegradedColumns != len(req.Columns) {
		t.Fatalf("batch 1: %d degraded columns, want all %d from the rule fallback", resp.DegradedColumns, len(req.Columns))
	}
	clk.Advance(6 * time.Second)
	_, resp = postBatch(t, g.Handler(), req)
	if resp.DegradedColumns != len(req.Columns) || calls.Load() != 1 {
		t.Fatalf("inside the Retry-After window: %d degraded columns, %d forwards; want all degraded, 1 forward", resp.DegradedColumns, calls.Load())
	}
	clk.Advance(60 * time.Second)
	for b := 0; b < 3; b++ {
		rec, resp := postBatch(t, g.Handler(), req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", b+3, rec.Code, rec.Body.Bytes())
		}
		requireOrdered(t, req, resp)
		if resp.DegradedColumns != 0 {
			t.Errorf("batch %d: %d degraded columns after the window passed, want 0", b+3, resp.DegradedColumns)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("replica saw %d forwards, want 4 (the 429, then one per batch)", got)
	}
	if got := metricValue(t, g.Handler(), "sortinghatgw_replica_r0_breaker_state"); got != 0 {
		t.Errorf("breaker_state = %v after a successful trial, want 0 (closed)", got)
	}
}

// TestTrialLegLosingHedgeIsOfferedAgain is the regression for a trial
// slot stranded by a canceled leg: both replicas of a one-column batch
// are tripped; past the probe interval the ring owner's trial leg hangs,
// the hedge sends the other replica's trial, which wins, and the owner's
// trial is canceled. When the other replica then fails, the owner must
// be offered a new trial and answer the batch undegraded.
func TestTrialLegLosingHedgeIsOfferedAgain(t *testing.T) {
	const (
		serveOK = iota
		fail
		hang // answer only once the leg is canceled
	)
	modes := map[string]*atomic.Int32{}
	forwards := map[string]*atomic.Int64{}
	var addrs []string
	for i := 0; i < 2; i++ {
		mode := new(atomic.Int32)
		addr, calls := stubReplica(t, func(_ int64, w http.ResponseWriter, r *http.Request) bool {
			switch mode.Load() {
			case fail:
				http.Error(w, "boom", http.StatusInternalServerError)
				return true
			case hang:
				// net/http notices the client's cancel only once the
				// body has been read.
				_, _ = io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
				case <-time.After(5 * time.Second):
				}
				return true
			}
			return false
		})
		modes[addr], forwards[addr] = mode, calls
		addrs = append(addrs, addr)
	}
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	g := newTestGateway(t, addrs, func(c *Config) {
		c.FailureThreshold = 1
		c.Clock = clk
		c.Hedge = 20 * time.Millisecond
	})
	req := testBatch(1)
	col := toColumn(req.Columns[0])
	owner := g.ring.Owner(ringKey(&col))
	ownerAddr, otherAddr := g.replicas[owner].addr, g.replicas[1-owner].addr
	label := g.replicas[owner].label
	post := func(step string, degraded int) {
		t.Helper()
		rec, resp := postBatch(t, g.Handler(), req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, rec.Code, rec.Body.Bytes())
		}
		if resp.DegradedColumns != degraded {
			t.Fatalf("%s: %d degraded columns, want %d", step, resp.DegradedColumns, degraded)
		}
	}
	breaker := func() float64 {
		return metricValue(t, g.Handler(), "sortinghatgw_replica_"+label+"_breaker_state")
	}

	// Both replicas fail and trip; the rule fallback answers.
	modes[ownerAddr].Store(fail)
	modes[otherAddr].Store(fail)
	post("trip", 1)
	if got := breaker(); got != float64(resilience.Open) {
		t.Fatalf("owner breaker_state = %v after its failure, want open", got)
	}

	// Past the probe interval the owner's trial goes out first and hangs;
	// the hedged trial of the other replica wins and cancels it.
	clk.Advance(6 * time.Second)
	modes[ownerAddr].Store(hang)
	modes[otherAddr].Store(serveOK)
	post("hedge", 0)
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, g.Handler(), "sortinghatgw_replica_"+label+"_inflight") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the owner's losing trial leg never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := forwards[ownerAddr].Load(); got != 2 {
		t.Fatalf("owner saw %d forwards, want 2 (the failure, then the losing trial)", got)
	}

	// The other replica now fails; only a fresh trial of the owner can
	// answer undegraded.
	modes[ownerAddr].Store(serveOK)
	modes[otherAddr].Store(fail)
	post("retrial", 0)
	if got := forwards[ownerAddr].Load(); got != 3 {
		t.Errorf("owner saw %d forwards, want 3", got)
	}
	if got := breaker(); got != float64(resilience.Closed) {
		t.Errorf("owner breaker_state = %v after a successful trial, want closed", got)
	}
}
