package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// shot is one request of a phase: which table was sent, how it ended,
// and its timing. lat runs from the send (closed loop) or the due time
// (open loop) until the whole response body was read.
type shot struct {
	table  int
	status int // 0 on a transport error
	body   []byte
	lat    time.Duration
	late   time.Duration // open loop only: send time minus due time
}

// newClient returns the load generator's HTTP client: at most conns
// connections to the target, all kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send posts one table and reads the whole answer; status 0 means a
// transport error. A non-empty reqID is sent as X-Request-Id.
func send(ctx context.Context, client *http.Client, url string, body []byte, reqID string) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, out
}

// closedLoop sends requests order[0:n] over conns connections, each
// connection sending its next request as soon as the previous answer is
// in. It returns the shots in request order and the phase's wall time.
func closedLoop(ctx context.Context, client *http.Client, url string, pool []table, order []int, conns int) ([]shot, time.Duration) {
	shots := make([]shot, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				t0 := time.Now()
				status, body := send(ctx, client, url, pool[order[i]].body, "")
				shots[i] = shot{table: order[i], status: status, body: body, lat: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	return shots, time.Since(start)
}

// warmUp runs a closed loop over order, cycled, for at least d and at
// least one whole pass, and discards the answers.
func warmUp(ctx context.Context, client *http.Client, url string, pool []table, order []int, conns int, d time.Duration) {
	until := time.Now().Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(order) && time.Until(until) <= 0 {
					return
				}
				send(ctx, client, url, pool[order[i%len(order)]].body, "")
			}
		}()
	}
	wg.Wait()
}

// openLoop sends request i at start+due[i] whether or not earlier
// requests have been answered; the client's connection limit queues
// requests that find every connection busy. Latency is timed from the
// due time, so a stall is charged to every request it delays.
func openLoop(ctx context.Context, client *http.Client, url string, pool []table, order []int, due []time.Duration) ([]shot, time.Duration) {
	shots := make([]shot, len(order))
	var wg sync.WaitGroup
	// time.Sleep wakes up to a millisecond late (the runtime's poller
	// sleeps in whole milliseconds); nanosleep on a thread of its own,
	// prioritized over the busy daemons, wakes within about 0.1 ms.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	restore, err := prioritize()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: open loop keeps the default scheduling:", err)
	}
	defer restore()
	start := time.Now()
	for i := range order {
		at := start.Add(due[i])
		// Gaps are milliseconds long, so sleeping through one delays a
		// cancellation by no more than that.
		for d := time.Until(at); d > 0; d = time.Until(at) {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		if ctx.Err() != nil {
			break
		}
		late := time.Since(at)
		wg.Add(1)
		go func(i int, at time.Time, late time.Duration) {
			defer wg.Done()
			status, body := send(ctx, client, url, pool[order[i]].body, "")
			shots[i] = shot{table: order[i], status: status, body: body, lat: time.Since(at), late: late}
		}(i, at, late)
	}
	wg.Wait()
	return shots, time.Since(start)
}

// tail is a latency summary: the median and the highest percentile that
// has at least ten samples beyond it, with the sample count.
type tail struct {
	p50, high time.Duration
	highPct   float64 // the percentile high reports, e.g. 99
	n         int
}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const minBeyond = 10

// summarize applies the percentile rule: report p99 when at least ten
// samples lie beyond it, otherwise the highest percentile that leaves
// ten beyond. It needs more than minBeyond samples.
func summarize(samples []time.Duration) tail {
	n := len(samples)
	if n <= minBeyond {
		return tail{n: n}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	beyond := (n + 99) / 100 // ceil(1% of n)
	if beyond < minBeyond {
		beyond = minBeyond
	}
	return tail{
		p50:     s[(n-1)/2],
		high:    s[n-1-beyond],
		highPct: 100 * float64(n-beyond) / float64(n),
		n:       n,
	}
}
