package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// postInferDeadline posts a batch with an X-Deadline-Ms header.
func postInferDeadline(t *testing.T, h http.Handler, req InferRequest, deadlineMS string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	r.Header.Set(DeadlineHeader, deadlineMS)
	h.ServeHTTP(rec, r)
	return rec
}

// TestDeadlineExpiredInQueue is the deadline-propagation drill: a
// single slow worker, a batch wider than the deadline allows, and a
// tight propagated budget. The request must answer 504, and — the
// point of the mechanism — every column still queued when the deadline
// passed must be dropped at worker pickup, counted in
// sortinghatd_deadline_expired_in_queue_total, and never featurized.
func TestDeadlineExpiredInQueue(t *testing.T) {
	const batch = 8
	s := newTestServer(t, Config{
		Workers:   1,
		CacheSize: -1,
		Faults:    slowSite("featurize", 50*time.Millisecond),
	})
	h := s.Handler()

	rec := postInferDeadline(t, h, testBatch(batch), "120")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body.Bytes())
	}
	if got := metricValue(t, h, "sortinghatd_request_timeouts_total"); got != 1 {
		t.Errorf("request_timeouts_total = %g, want 1", got)
	}

	// The worker drains the abandoned queue after the 504 is written;
	// poll until every column is accounted for as either featurized (the
	// fault fired for it) or expired-in-queue.
	deadline := time.Now().Add(5 * time.Second)
	var visits, expired float64
	for {
		visits = metricValue(t, h, "sortinghatd_featurize_seconds_count")
		expired = metricValue(t, h, "sortinghatd_deadline_expired_in_queue_total")
		if visits+expired >= batch || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if visits+expired != batch {
		t.Fatalf("columns unaccounted for: featurized %g + expired %g != %d", visits, expired, batch)
	}
	if expired < 1 {
		t.Errorf("deadline_expired_in_queue_total = %g, want >= 1 (a 120ms budget cannot featurize %d columns at 50ms each)", expired, batch)
	}

	// The flight recorder's errored ring must name the rejecting control.
	frec := httptest.NewRecorder()
	h.ServeHTTP(frec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if frec.Code != http.StatusOK {
		t.Fatalf("/debug/flight status = %d", frec.Code)
	}
	// (The per-request expired-column count note is best-effort: the
	// record is written when the 504 is, usually before the worker drains
	// the abandoned queue, so only the control note is guaranteed.)
	if !bytes.Contains(frec.Body.Bytes(), []byte("rejected by control: deadline")) {
		t.Errorf("/debug/flight errored ring missing the deadline routing note; body %s", frec.Body.Bytes())
	}
}

// TestDeadlineSpentBeforeAdmission checks a request arriving with no
// budget left is rejected up front: 504, a Retry-After-free fast fail,
// and zero columns admitted.
func TestDeadlineSpentBeforeAdmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	rec := postInferDeadline(t, h, testBatch(2), "0")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body.Bytes())
	}
	if got := metricValue(t, h, "sortinghatd_columns_total"); got != 0 {
		t.Errorf("columns_total = %g, want 0 (nothing admitted on a spent budget)", got)
	}
}

// TestDeadlineHeaderMalformed checks garbage in X-Deadline-Ms is a 400,
// not a silently ignored header, while a budget too large for a
// nanosecond time.Duration is clamped rather than wrapped negative into
// an instant 504.
func TestDeadlineHeaderMalformed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"soon", http.StatusBadRequest},
		{"60000", http.StatusOK},
		{"10000000000000", http.StatusOK},
		{"9223372036854775807", http.StatusOK},
	} {
		rec := postInferDeadline(t, s.Handler(), testBatch(1), tc.header)
		if rec.Code != tc.want {
			t.Errorf("X-Deadline-Ms %s: status = %d, want %d; body %s", tc.header, rec.Code, tc.want, rec.Body.Bytes())
		}
	}
}

// TestParseDeadline table-drives the shared X-Deadline-Ms parser.
func TestParseDeadline(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		err  bool
	}{
		{"250", 250 * time.Millisecond, false},
		{"0", 0, false},
		{"-5", 0, false},
		{"9223372036854", 9223372036854 * time.Millisecond, false}, // the last value that fits
		{"9223372036855", math.MaxInt64, false},
		{"10000000000000", math.MaxInt64, false},
		{"9223372036854775807", math.MaxInt64, false},
		{"9223372036854775808", 0, true}, // past int64
		{"1.5", 0, true},
		{"", 0, true},
	} {
		got, err := ParseDeadline(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseDeadline(%q) = %v, %v; want %v, error %v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// FuzzParseDeadline checks the X-Deadline-Ms parser never panics, never
// returns a negative budget, and reads every accepted positive value
// exactly or saturated at the largest time.Duration.
func FuzzParseDeadline(f *testing.F) {
	f.Add("60000")
	f.Fuzz(func(t *testing.T, v string) {
		d, err := ParseDeadline(v)
		if err != nil {
			return
		}
		if d < 0 {
			t.Fatalf("ParseDeadline(%q) = %v, a negative budget", v, d)
		}
		ms, _ := strconv.ParseInt(v, 10, 64)
		if ms > 0 && d != math.MaxInt64 && d != time.Duration(ms)*time.Millisecond {
			t.Fatalf("ParseDeadline(%q) = %v, want %dms", v, d, ms)
		}
		if ms > 0 && d == math.MaxInt64 && ms <= math.MaxInt64/int64(time.Millisecond) {
			t.Fatalf("ParseDeadline(%q) saturated a budget that fits", v)
		}
	})
}

// TestHTTPServerClosesStalledUpload checks the daemons' read bound: a
// client that sends headers promising 1000 body bytes, then 10 of them,
// then nothing, has its connection closed within timeout + headers
// instead of holding it (and its body buffer) open forever.
func TestHTTPServerClosesStalledUpload(t *testing.T) {
	const timeout, headers = 100 * time.Millisecond, 100 * time.Millisecond
	if got := NewHTTPServer("", nil, 0, headers).ReadTimeout; got != DefaultTimeout+headers {
		t.Errorf("ReadTimeout with the default handler timeout = %v, want %v", got, DefaultTimeout+headers)
	}
	if got := NewHTTPServer("", nil, -1, headers).ReadTimeout; got != 0 {
		t.Errorf("ReadTimeout with the handler timeout disabled = %v, want unset", got)
	}

	s := newTestServer(t, Config{Workers: 1})
	srv := NewHTTPServer("", s.Handler(), timeout, headers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"columns\""); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled upload still connected after %v: %v", time.Since(start), err)
	}
	if took := time.Since(start); took > timeout+headers+time.Second {
		t.Errorf("stalled upload closed after %v, want within about %v", took, timeout+headers)
	}
}

// TestRetryAfterScalesWithQueueDepth checks the shed response's
// Retry-After hint is derived from live queue fullness (here: full
// queue → the configured max), replacing the old hardcoded "1".
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	block := make(chan struct{})
	var unblockOnce sync.Once
	unblock := func() { unblockOnce.Do(func() { close(block) }) }
	t.Cleanup(unblock)
	s := newTestServer(t, Config{
		Workers:       1,
		CacheSize:     -1,
		MaxBatch:      4,
		QueueDepth:    4,
		RetryAfterMax: 8,
		Faults: injectFunc(func(site string) error {
			if site == "featurize" {
				<-block
			}
			return nil
		}),
	})
	h := s.Handler()

	// Fill the queue: 4 columns admitted, worker parked on the first.
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		body, _ := json.Marshal(testBatch(4))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		first <- rec
	}()
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, h, "sortinghatd_queue_depth") < 3 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec, _ := postInfer(t, h, testBatch(2))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", rec.Code, rec.Body.Bytes())
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", rec.Header().Get("Retry-After"))
	}
	// Depth was at least 3 of 4 when the shed happened: ceil(3*8/4) = 6.
	if ra < 6 || ra > 8 {
		t.Errorf("Retry-After = %d, want in [6, 8] for a nearly full queue (was hardcoded 1 before)", ra)
	}

	unblock()
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("parked batch finished with %d, want 200", rec.Code)
	}
}
