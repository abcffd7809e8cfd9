package gateway

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file pins the gateway's resource-lifecycle invariants with
// runtime regression tests: every response body the forwarding client
// ever receives is closed (hedge losers included, whose attempts are
// dropped from a buffered channel after the winner answers), and the
// health prober's ticker goroutine is fully torn down by Close.

// bodyTracker counts response bodies handed out by a transport and
// bodies closed by the client code that received them.
type bodyTracker struct {
	mu     sync.Mutex
	opened int
	closed int
}

func (b *bodyTracker) counts() (opened, closed int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opened, b.closed
}

// trackedBody counts its first Close; double closes are harmless and
// counted once, but a never-closed body leaves opened > closed.
type trackedBody struct {
	io.ReadCloser
	tr   *bodyTracker
	once sync.Once
}

func (b *trackedBody) Close() error {
	b.once.Do(func() {
		b.tr.mu.Lock()
		b.tr.closed++
		b.tr.mu.Unlock()
	})
	return b.ReadCloser.Close()
}

// trackingTransport wraps every delivered response body in a
// trackedBody. Requests canceled before a response is delivered never
// open a body, so opened counts exactly the bodies the gateway owes a
// Close for.
type trackingTransport struct {
	tr   *bodyTracker
	next http.RoundTripper
}

func (t *trackingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if resp != nil && resp.Body != nil {
		t.tr.mu.Lock()
		t.tr.opened++
		t.tr.mu.Unlock()
		resp.Body = &trackedBody{ReadCloser: resp.Body, tr: t.tr}
	}
	return resp, err
}

// TestGatewayHedgeLoserBodiesClosed forces hedging on every group (a
// near-zero hedge delay against uniformly slow replicas) and asserts at
// the transport layer that every response body the forwarding client
// received was closed — including hedge losers, whose shardAttempt is
// dropped unread from the buffered attempts channel after the winner
// settles the group.
func TestGatewayHedgeLoserBodiesClosed(t *testing.T) {
	const delay = 100 * time.Millisecond
	_, addrs := startFleet(t, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/infer" {
				time.Sleep(delay)
			}
			h.ServeHTTP(w, r)
		})
	})
	tr := &bodyTracker{}
	g := newTestGateway(t, addrs, func(c *Config) {
		c.Hedge = time.Millisecond
		c.Client = &http.Client{Transport: &trackingTransport{tr: tr, next: http.DefaultTransport}}
	})

	req := testBatch(24)
	rec, resp := postBatch(t, g.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	requireOrdered(t, req, resp)
	if resp.HedgedRequests == 0 {
		t.Fatal("no hedges fired; the test did not exercise the loser path")
	}

	// Straggler attempts resolve into the buffered channel shortly after
	// the winner cancels them; poll until the books balance.
	deadline := time.Now().Add(5 * time.Second)
	for {
		opened, closed := tr.counts()
		if opened > 0 && opened == closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("response bodies leaked: %d opened, %d closed", opened, closed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayProberStopsOnClose pins the prober's ticker lifecycle:
// Close must tear the probe goroutine (and its ticker) down, after
// which no further /healthz probes may land.
func TestGatewayProberStopsOnClose(t *testing.T) {
	var probes atomic.Int64
	_, addrs := startFleet(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				probes.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	const interval = 20 * time.Millisecond
	g, err := New(Config{Replicas: addrs, ProbeInterval: interval, Hedge: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Let the startup sweep plus at least one ticker-driven sweep land.
	deadline := time.Now().Add(5 * time.Second)
	for probes.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d probes before deadline; prober not running", probes.Load())
		}
		time.Sleep(interval / 2)
	}

	// Close blocks until the probe goroutine has exited, so any probe
	// after this point means the ticker outlived the gateway.
	g.Close()
	after := probes.Load()
	time.Sleep(5 * interval)
	if got := probes.Load(); got != after {
		t.Errorf("%d probes landed after Close (count %d -> %d); prober ticker not stopped", got-after, after, got)
	}
}
