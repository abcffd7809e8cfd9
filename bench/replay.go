package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/featurize"
	"sortinghat/internal/gateway"
	"sortinghat/internal/obs"
	"sortinghat/internal/serve"
	"sortinghat/internal/stats"
)

// Span names: one per layer boundary the replay times.
const (
	spanClient     = "client.http"
	spanHandler    = "serve.handler"
	spanGateway    = "gateway.handler"
	spanDecode     = "serve.decode"
	spanEncode     = "serve.encode"
	spanHash       = "serve.hash"
	spanInferBatch = "serve.infer_batch"
	spanSample     = "data.sample"
	spanStats      = "stats.compute"
	spanVector     = "featurize.vector"
	spanPredict    = "tree.predict"
)

// loopback is an in-process HTTP server on a free loopback port.
type loopback struct {
	url string
	srv *http.Server
	ln  net.Listener
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, ln: ln}
	go func() { _ = lb.srv.Serve(ln) }() // returns http.ErrServerClosed on close
	return lb, nil
}

func (lb *loopback) close() { _ = lb.srv.Close() }

// replayStack is the workload's serving stack built in process from the
// public constructors, with a benchmark span around every handler.
type replayStack struct {
	url     string
	servers []*serve.Server
	gw      *gateway.Gateway
	lbs     []*loopback
	closed  bool
	// mirror receives the same batches as the single daemon through
	// InferBatch, so its cache state matches and its InferBatch call
	// re-executes what the handler did.
	mirror *serve.Server
}

// wrap times a handler as a server span of rec.
func wrap(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, id, parent, ok := rec.serverSpan(r.Header.Get("X-Request-Id"))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(trace, id, parent, name, start, time.Now())
	})
}

// newReplayStack mirrors the workload's daemons in process: the same
// worker counts, default cache and gateway settings, and an access log
// that is formatted and discarded like the daemons' log file writes.
func newReplayStack(pipe *core.Pipeline, rec *recorder, fleet bool) (*replayStack, error) {
	logger := obs.NewLogger(io.Discard, slog.LevelInfo)
	rs := &replayStack{}
	if !fleet {
		s := serve.New(pipe, serve.Config{Workers: 2, Logger: logger})
		rs.servers = append(rs.servers, s)
		rs.mirror = serve.New(pipe, serve.Config{Workers: 2})
		lb, err := serveLoopback(wrap(rec, spanHandler, s.Handler()))
		if err != nil {
			rs.close()
			return nil, err
		}
		rs.lbs = append(rs.lbs, lb)
		rs.url = lb.url
		return rs, nil
	}
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(pipe, serve.Config{Workers: 1, Logger: logger})
		rs.servers = append(rs.servers, s)
		lb, err := serveLoopback(wrap(rec, spanHandler, s.Handler()))
		if err != nil {
			rs.close()
			return nil, err
		}
		rs.lbs = append(rs.lbs, lb)
		urls = append(urls, lb.url)
	}
	gw, err := gateway.New(gateway.Config{Replicas: urls, Logger: logger})
	if err != nil {
		rs.close()
		return nil, fmt.Errorf("starting in-process gateway: %w", err)
	}
	rs.gw = gw
	lb, err := serveLoopback(wrap(rec, spanGateway, gw.Handler()))
	if err != nil {
		rs.close()
		return nil, err
	}
	rs.lbs = append(rs.lbs, lb)
	rs.url = lb.url
	return rs, nil
}

// close stops the loopback servers, then the gateway and the servers.
// Calls after the first do nothing.
func (rs *replayStack) close() {
	if rs.closed {
		return
	}
	rs.closed = true
	for i := len(rs.lbs) - 1; i >= 0; i-- {
		rs.lbs[i].close()
	}
	if rs.gw != nil {
		rs.gw.Close()
	}
	for _, s := range rs.servers {
		s.Close()
	}
	if rs.mirror != nil {
		rs.mirror.Close()
	}
}

// replayPost sends one table through a replay stack; anything but a 200
// fails the replay.
func replayPost(ctx context.Context, client *http.Client, url string, body []byte, reqID string) ([]byte, error) {
	status, out := send(ctx, client, url, body, reqID)
	if status != http.StatusOK {
		return nil, fmt.Errorf("replay request failed with status %d: %s", status, bytes.TrimSpace(out))
	}
	return out, nil
}

// layerTimes accumulates the per-column layer calls of the replay.
type layerTimes struct {
	sample, stats, vector, predict, hash time.Duration
	inferNoCache                         time.Duration // Server.InferBatch, 1 worker, no cache
	cols, cells                          int
}

// measureLayers calls every per-column layer on each column of a table,
// in pipeline order, and Server.InferBatch on a 1-worker, cacheless
// server, accumulating their times.
func measureLayers(ctx context.Context, pipe *core.Pipeline, nocache *serve.Server, cols []data.Column, lt *layerTimes) error {
	vec := make([]float64, 0, pipe.Opts.FeatureSet.Dim())
	for j := range cols {
		col := &cols[j]
		t0 := time.Now()
		serve.ColumnHash(col)
		t1 := time.Now()
		samples := col.FirstNDistinct(featurize.SampleCount)
		t2 := time.Now()
		base := featurize.Base{Name: col.Name, Samples: samples, Stats: stats.Compute(col, samples)}
		t3 := time.Now()
		vec = pipe.Opts.FeatureSet.AppendVector(vec[:0], &base)
		t4 := time.Now()
		pipe.Forest.PredictProba(vec)
		t5 := time.Now()
		lt.hash += t1.Sub(t0)
		lt.sample += t2.Sub(t1)
		lt.stats += t3.Sub(t2)
		lt.vector += t4.Sub(t3)
		lt.predict += t5.Sub(t4)
		lt.cols++
		lt.cells += len(col.Values)
	}
	t0 := time.Now()
	if _, err := nocache.InferBatch(ctx, cols); err != nil {
		return fmt.Errorf("replaying InferBatch: %w", err)
	}
	lt.inferNoCache += time.Since(t0)
	return nil
}

// replayResult is what a traced run reports from the replay.
type replayResult struct {
	layers      layerTimes
	tables      int
	rtUntraced  time.Duration    // summed round trips, no spans recorded
	rtTraced    time.Duration    // summed round trips of the traced pass
	selfByTable []int64          // summed self time of each table's server-side spans
	spanSums    map[string]int64 // summed durations by span name
	selfSums    map[string]int64 // summed self times by span name
}

// replay runs the workload's tables through in-process copies of its
// serving stack: once untraced, once with a span at every layer
// boundary. warm are the tables sent first, untimed, to fill the caches
// as the timed phases found them.
func replay(ctx context.Context, pipe *core.Pipeline, rec *recorder, fleet bool, warm, tables []*table) (*replayResult, error) {
	res := &replayResult{tables: len(tables)}
	client := newClient(1)

	// Untraced pass on its own stack, so both passes see the same cache
	// state.
	plain, err := newReplayStack(pipe, rec, fleet)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	if err := prime(ctx, client, plain, warm); err != nil {
		return nil, err
	}
	for _, t := range tables {
		t0 := time.Now()
		if _, err := replayPost(ctx, client, plain.url, t.body, ""); err != nil {
			return nil, err
		}
		res.rtUntraced += time.Since(t0)
	}
	plain.close()

	traced, err := newReplayStack(pipe, rec, fleet)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	if err := prime(ctx, client, traced, warm); err != nil {
		return nil, err
	}
	nocache := serve.New(pipe, serve.Config{Workers: 1, CacheSize: -1})
	defer nocache.Close()
	rec.mu.Lock()
	first, firstSpan := rec.lastTrace+1, len(rec.spans)
	rec.lastTrace += len(tables)
	rec.mu.Unlock()
	for k, t := range tables {
		trace := first + k
		root := rec.newID()
		reqID := requestID(trace, root)
		t0 := time.Now()
		body, err := replayPost(ctx, client, traced.url, t.body, reqID)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		rec.add(trace, root, 0, spanClient, t0, t1)
		res.rtTraced += t1.Sub(t0)
		front, err := rec.frontSpan(reqID)
		if err != nil {
			return nil, err
		}
		if err := project(ctx, rec, traced, pipe, trace, front, t, body); err != nil {
			return nil, err
		}
		if err := measureLayers(ctx, pipe, nocache, t.cols, &res.layers); err != nil {
			return nil, err
		}
	}
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans[firstSpan:]...)
	rec.mu.Unlock()
	self := selfTimes(spans)
	res.selfByTable = make([]int64, len(tables))
	res.spanSums = map[string]int64{}
	res.selfSums = map[string]int64{}
	for _, s := range spans {
		if s.Name != spanClient {
			res.selfByTable[s.Trace-first] += self[s.ID]
		}
		res.spanSums[s.Name] += s.End - s.Start
		res.selfSums[s.Name] += self[s.ID]
	}
	return res, nil
}

// prime sends tables through a replay stack, and its mirror, untimed.
func prime(ctx context.Context, client *http.Client, rs *replayStack, tables []*table) error {
	for _, t := range tables {
		if _, err := replayPost(ctx, client, rs.url, t.body, ""); err != nil {
			return err
		}
		if rs.mirror != nil {
			if _, err := rs.mirror.InferBatch(ctx, t.cols); err != nil {
				return fmt.Errorf("priming mirror: %w", err)
			}
		}
	}
	return nil
}

// project re-executes, after a traced round trip, the layer calls the
// first server span made inside the round trip, recording each as that
// span's child: request decode, (single daemon) InferBatch with the
// per-column layers of the columns it missed as its children, column
// hashing (the gateway's ring keys, or the daemon's cache keys) and
// response encode.
func project(ctx context.Context, rec *recorder, rs *replayStack, pipe *core.Pipeline, trace, front int, t *table, respBody []byte) error {
	record := func(parent int, name string, fn func() error) error {
		id := rec.newID()
		start := time.Now()
		err := fn()
		rec.add(trace, id, parent, name, start, time.Now())
		return err
	}
	var req serve.InferRequest
	if err := record(front, spanDecode, func() error { return json.Unmarshal(t.body, &req) }); err != nil {
		return fmt.Errorf("replaying decode: %w", err)
	}
	cols := make([]data.Column, len(req.Columns))
	for i, c := range req.Columns {
		cols[i] = data.Column{Name: c.Name, Values: c.Values}
	}
	hashParent := front
	if rs.mirror != nil {
		ib := rec.newID()
		start := time.Now()
		results, err := rs.mirror.InferBatch(ctx, cols)
		rec.add(trace, ib, front, spanInferBatch, start, time.Now())
		if err != nil {
			return fmt.Errorf("replaying InferBatch: %w", err)
		}
		hashParent = ib
		var miss []*data.Column
		for i := range results {
			if !results[i].CacheHit {
				miss = append(miss, &cols[i])
			}
		}
		projectMisses(rec, pipe, trace, ib, miss)
	}
	_ = record(hashParent, spanHash, func() error {
		for i := range cols {
			serve.ColumnHash(&cols[i])
		}
		return nil
	})
	var out any = &serve.InferResponse{}
	if rs.gw != nil {
		out = &gateway.BatchResponse{}
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		return fmt.Errorf("decoding replay answer: %w", err)
	}
	return record(front, spanEncode, func() error {
		_, err := json.Marshal(out)
		return err
	})
}

// projectMisses re-executes featurization and prediction of the columns
// InferBatch missed in its cache, one span per layer over all of them.
func projectMisses(rec *recorder, pipe *core.Pipeline, trace, parent int, miss []*data.Column) {
	if len(miss) == 0 {
		return
	}
	samples := make([][]string, len(miss))
	bases := make([]featurize.Base, len(miss))
	vecs := make([][]float64, len(miss))
	layer := func(name string, fn func(i int)) {
		id := rec.newID()
		start := time.Now()
		for i := range miss {
			fn(i)
		}
		rec.add(trace, id, parent, name, start, time.Now())
	}
	layer(spanSample, func(i int) { samples[i] = miss[i].FirstNDistinct(featurize.SampleCount) })
	layer(spanStats, func(i int) {
		bases[i] = featurize.Base{Name: miss[i].Name, Samples: samples[i], Stats: stats.Compute(miss[i], samples[i])}
	})
	layer(spanVector, func(i int) { vecs[i] = pipe.Opts.FeatureSet.AppendVector(nil, &bases[i]) })
	layer(spanPredict, func(i int) { pipe.Forest.PredictProba(vecs[i]) })
}
