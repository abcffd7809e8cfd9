package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one benchmark-owned span. Spans of one replayed table share a
// trace id; a root has parent 0. Times are nanoseconds since the
// recorder was created.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Server-side spans
// find their parent through the request id the client sends
// ("bench-<trace>-<parent span>"), which the gateway forwards unchanged
// to its replicas.
type recorder struct {
	mu        sync.Mutex
	base      time.Time
	spans     []span
	lastID    int
	lastTrace int
	front     map[string]int // request id -> span id of the first server span
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), front: map[string]int{}}
}

// newID allocates a span id.
func (r *recorder) newID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastID++
	return r.lastID
}

// add records a finished span.
func (r *recorder) add(trace, id, parent int, name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds(),
	})
}

// requestID names a traced request for the server-side spans.
func requestID(trace, parent int) string {
	return "bench-" + strconv.Itoa(trace) + "-" + strconv.Itoa(parent)
}

// parseRequestID is the inverse of requestID.
func parseRequestID(id string) (trace, parent int, ok bool) {
	rest, ok := strings.CutPrefix(id, "bench-")
	if !ok {
		return 0, 0, false
	}
	a, b, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, 0, false
	}
	trace, err1 := strconv.Atoi(a)
	parent, err2 := strconv.Atoi(b)
	return trace, parent, err1 == nil && err2 == nil
}

// serverSpan opens the span of a server-side handler for request id. The
// first server span of a request (the daemon, or the gateway in a fleet)
// is a child of the client's span; later ones (the replicas behind a
// gateway) are children of that first server span. It returns the span's
// trace, id and parent, or ok=false for an untraced request.
func (r *recorder) serverSpan(reqID string) (trace, id, parent int, ok bool) {
	trace, parent, ok = parseRequestID(reqID)
	if !ok {
		return 0, 0, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastID++
	id = r.lastID
	if front, seen := r.front[reqID]; seen {
		parent = front
	} else {
		r.front[reqID] = id
	}
	return trace, id, parent, true
}

// frontSpan returns the id of the first server span of a request.
func (r *recorder) frontSpan(reqID string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.front[reqID]
	if !ok {
		return 0, fmt.Errorf("no server span for request %s", reqID)
	}
	return id, nil
}

// selfTimes returns each span's self time: its duration minus the
// measure of the union of its children's intervals. Children that
// re-execute a parent's work after the parent ended (the replayed layer
// calls) are not clipped to the parent's interval, so their union still
// measures how much of the parent they account for. Self time goes
// negative when the parent ran the children's work in parallel (a worker
// pool) faster than their serial re-execution: the negative part is the
// time the parallelism saved.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - unionLength(children[s.ID])
	}
	return out
}

// unionLength measures the union of half-open intervals.
func unionLength(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// writeJSONL writes the spans, ordered by trace and start, one JSON
// object per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Trace != spans[j].Trace {
			return spans[i].Trace < spans[j].Trace
		}
		return spans[i].Start < spans[j].Start
	})
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
