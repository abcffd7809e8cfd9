package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/serve"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		// Reversed, so summarize must sort.
		out[i] = time.Duration(n-i) * time.Millisecond
	}
	return out
}

func TestSummarizePercentileRule(t *testing.T) {
	cases := []struct {
		n        int
		wantHigh time.Duration // the sample with exactly `beyond` samples above it
		wantPct  float64
	}{
		{n: 1000, wantHigh: 990 * time.Millisecond, wantPct: 99},
		{n: 2000, wantHigh: 1980 * time.Millisecond, wantPct: 99},
		{n: 500, wantHigh: 490 * time.Millisecond, wantPct: 98},
		{n: 11, wantHigh: 1 * time.Millisecond, wantPct: 100.0 / 11},
	}
	for _, c := range cases {
		got := summarize(durations(c.n))
		if got.n != c.n || got.high != c.wantHigh || math.Abs(got.highPct-c.wantPct) > 1e-9 {
			t.Errorf("n=%d: got high %v at p%.4g (n=%d), want %v at p%.4g", c.n, got.high, got.highPct, got.n, c.wantHigh, c.wantPct)
		}
		beyond := 0
		for _, d := range durations(c.n) {
			if d > got.high {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
		if want := time.Duration((c.n+1)/2) * time.Millisecond; got.p50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, got.p50, want)
		}
	}
	if got := summarize(durations(minBeyond)); got.high != 0 || got.n != minBeyond {
		t.Errorf("10 samples support no tail percentile, got %+v", got)
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	a, b, c := suiteTables(5, 1), suiteTables(5, 1), suiteTables(6, 1)
	for _, pool := range [][]table{a, b, c} {
		if err := encodeBodies(pool); err != nil {
			t.Fatal(err)
		}
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("table %d: request bodies differ", i)
		}
	}
	if bytes.Equal(a[0].body, c[0].body) {
		t.Error("seeds 5 and 6 generated the same first table")
	}

	fresh := []int{30, 31, 32, 33, 34, 35, 36, 37, 38, 39}
	o1 := mixed(rand.New(rand.NewSource(5)), 400, 30, fresh)
	o2 := mixed(rand.New(rand.NewSource(5)), 400, 30, fresh)
	hot := map[int]int{}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("request %d: table %d vs %d", i, o1[i], o2[i])
		}
		if o1[i] < 30 {
			hot[o1[i]]++
		}
		if i%2 == 1 && (o1[i] < 30) == (o1[i-1] < 30) {
			t.Fatalf("requests %d and %d are not one hot and one fresh table", i-1, i)
		}
	}
	// 200 hot draws in passes over 30 tables: each drawn 6 or 7 times.
	for tb, n := range hot {
		if n < 6 || n > 7 {
			t.Errorf("hot table %d drawn %d times in 200 draws", tb, n)
		}
	}

	s1, s2 := schedule(5, 500, 100), schedule(5, 500, 100)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("due time %d: %v vs %v", i, s1[i], s2[i])
		}
	}
	if s1[0] != 0 || s1[len(s1)-1] < 4*time.Second || s1[len(s1)-1] > 6*time.Second {
		t.Errorf("500 arrivals at 100/s span %v, want about 5s starting at 0", s1[len(s1)-1])
	}
}

func TestCorpusTablesGroupByFile(t *testing.T) {
	tables := corpusTables(heldOutSeed(1), 400)
	cols := 0
	for i, tb := range tables {
		if len(tb.cols) != len(tb.labels) || len(tb.cols) == 0 || len(tb.cols) > 12 {
			t.Fatalf("table %d: %d columns, %d labels", i, len(tb.cols), len(tb.labels))
		}
		for _, c := range tb.cols {
			if len(c.Values) != len(tb.cols[0].Values) {
				t.Fatalf("table %d is not rectangular", i)
			}
		}
		cols += len(tb.cols)
	}
	if cols != 400 {
		t.Errorf("tables hold %d columns, want 400", cols)
	}
	if heldOutSeed(0) == 7 || heldOutSeed(-124) == 7 {
		t.Error("held-out corpus seed collides with the training seed")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	release := make(chan struct{})
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false // one connection: requests are served one at a time
			<-release
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()
	time.AfterFunc(40*time.Millisecond, func() { close(release) })

	pool := []table{{body: []byte("{}")}}
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	shots, _ := openLoop(context.Background(), newClient(1), srv.URL, pool, []int{0, 0, 0}, due)
	for i, s := range shots {
		if s.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, s.status)
		}
		if s.late < 0 || s.late > 20*time.Millisecond {
			t.Errorf("request %d sent %v after its due time", i, s.late)
		}
	}
	// The first request holds the only connection for 40ms, so the ones
	// due at 5ms and 10ms wait behind it, and that wait is their latency.
	if shots[1].lat < 30*time.Millisecond || shots[2].lat < 25*time.Millisecond {
		t.Errorf("queued requests report %v and %v, want the wait behind the stalled one", shots[1].lat, shots[2].lat)
	}
	lat := latencies([]shot{{status: http.StatusOK, lat: time.Millisecond}, {status: 0, lat: time.Millisecond}})
	if lat[1] != math.MaxInt64 {
		t.Errorf("a failed request reports %v, want it to miss every limit", lat[1])
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 80, End: 90},
		{Trace: 1, ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
		// A replayed child re-executed after its parent ended.
		{Trace: 1, ID: 6, Parent: 4, Name: "c1", Start: 120, End: 126},
		// Serial replays slower than the parallel work they re-execute.
		{Trace: 1, ID: 7, Parent: 0, Name: "pool", Start: 200, End: 210},
		{Trace: 1, ID: 8, Parent: 7, Name: "w1", Start: 300, End: 308},
		{Trace: 1, ID: 9, Parent: 7, Name: "w2", Start: 310, End: 318},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 60, 2: 30 - 5, 3: 30, 4: 10 - 6, 5: 5, 6: 6, 7: 10 - 16, 8: 8, 9: 8}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if got := unionLength([][2]int64{{5, 10}, {0, 3}, {2, 4}, {10, 12}}); got != 4+7 {
		t.Errorf("union length %d, want 11", got)
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	trace, parent, ok := parseRequestID(requestID(12, 345))
	if !ok || trace != 12 || parent != 345 {
		t.Errorf("round trip gave %d, %d, %v", trace, parent, ok)
	}
	for _, id := range []string{"", "req-1", "bench-1", "bench-x-2"} {
		if _, _, ok := parseRequestID(id); ok {
			t.Errorf("%q parsed as a traced request", id)
		}
	}
}

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP sortinghatd_cache_hits_total Columns answered from the cache.
# TYPE sortinghatd_cache_hits_total counter
sortinghatd_cache_hits_total 10
sortinghatd_queue_seconds_bucket{le="1e-05"} 3
sortinghatd_queue_seconds_sum 0.5
sortinghatd_queue_seconds_count 4
sortinghatd_gc_pause_seconds_total 1.5e-05
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`sortinghatd_cache_hits_total 25
sortinghatd_queue_seconds_bucket{le="1e-05"} 7
sortinghatd_queue_seconds_sum 0.75
sortinghatd_queue_seconds_count 9
sortinghatd_gc_pause_seconds_total 2.5e-05
sortinghatd_new_total 3
`))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"sortinghatd_cache_hits_total":                 15,
		`sortinghatd_queue_seconds_bucket{le="1e-05"}`: 4,
		"sortinghatd_queue_seconds_sum":                0.25,
		"sortinghatd_queue_seconds_count":              5,
		"sortinghatd_gc_pause_seconds_total":           1e-05,
		"sortinghatd_new_total":                        3,
		"sortinghatd_absent_total":                     0,
	} {
		if got := delta(before, after, name); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: delta %g, want %g", name, got, want)
		}
	}
	if _, err := parseProm(strings.NewReader("sortinghatd_x notanumber\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func TestParseProcFiles(t *testing.T) {
	// The command name holds spaces and a ')' of its own.
	line := "4242 (sorting hat) d) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 75 0 0 20 0 9 0 123 456 789"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; got != want {
		t.Errorf("utime+stime %v, want %v", got, want)
	}
	if _, err := parseProcStat("4242 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
	rss, err := parseVmHWM("Name:\tsortinghatd\nVmPeak:\t  900 kB\nVmHWM:\t   44636 kB\nVmRSS:\t 40000 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if rss != 44636*1024 {
		t.Errorf("VmHWM %d bytes, want %d", rss, 44636*1024)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestMatchesIsBitExact(t *testing.T) {
	want := expected{typ: ftype.Categorical, probs: make([]float64, ftype.NumBaseClasses)}
	want.probs[ftype.Categorical.Index()] = 0.7
	want.probs[ftype.Numeric.Index()] = 0.3
	pred := func() serve.InferPrediction {
		p := serve.InferPrediction{Name: "color", Type: ftype.Categorical.String(), Confidence: 0.7, Probs: map[string]float64{}}
		for c, v := range want.probs {
			p.Probs[ftype.FeatureType(c).String()] = v
		}
		return p
	}
	if !matches(pred(), "color", want) {
		t.Fatal("an identical prediction does not match")
	}
	off := pred()
	off.Probs[ftype.Numeric.String()] = math.Nextafter(0.3, 1)
	if matches(off, "color", want) {
		t.Error("a probability one ulp off matches")
	}
	moved := pred()
	if matches(moved, "colour", want) {
		t.Error("a prediction for another column matches")
	}
	wrongType := pred()
	wrongType.Type = ftype.Numeric.String()
	if matches(wrongType, "color", want) {
		t.Error("a prediction of another type matches")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and (range(1, 6), n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{xs: []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, q1: 2.75, med: 5.5, q3: 8.25},
		{xs: []float64{5, 1, 4, 2, 3}, q1: 1.5, med: 3, q3: 4.5},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
