// Command sortinghatgw fronts a fleet of sortinghatd replicas: it
// accepts the same inference API as a single daemon, shards each batch's
// columns across the fleet on a consistent-hash ring keyed by column
// content, and reassembles the answers in request order.
//
// Usage:
//
//	sortinghatgw -replicas http://10.0.0.1:8080,http://10.0.0.2:8080 [-addr :8090]
//	sortinghatgw -replicas ... -hedge 100ms -probe-interval 1s
//	sortinghatgw -replicas ... -fault-spec 'forward@r1:error:1' -fault-seed 7   # chaos drills
//
// Endpoints:
//
//	POST /v1/infer       same body as sortinghatd; sharded across the fleet
//	POST /v1/infer/csv   text/csv body; one inferred type per column
//	GET  /healthz        fleet view: per-replica health, breaker, ownership
//	GET  /metrics        Prometheus text-format metrics (sortinghatgw_*)
//	GET  /debug/traces   recent request traces, one shard span per group
//	GET  /debug/flight   flight recorder: slowest and errored recent requests
//	GET  /debug/pprof/   runtime profiles (only with -pprof)
//
// Distributed tracing: the gateway mints (or continues, when the client
// sent a traceparent) a W3C trace id per request and forwards it —
// together with the X-Request-Id — on every shard sub-request, so each
// replica's trace joins the gateway's. -trace-out appends finished
// request traces to a JSONL file; run cmd/tracecat over the gateway's
// and the replicas' sink files to reconstruct one fleet-wide timeline
// per request.
//
// Routing: each column's ring key is derived from the same content hash
// the daemons use for their prediction caches, so identical columns
// always land on the same replica and the fleet's caches hold disjoint
// shards of the column space. Replicas that report "degraded" on
// /healthz are deprioritized; replicas that fail probes (or trip the
// gateway's per-replica forwarding breaker) are routed around. Slow
// shards are hedged after -hedge; if every candidate fails, affected
// columns are answered by the gateway's local rule fallback, tagged
// "degraded":true, so a batch always comes back complete.
//
// Rollouts: replicas may serve different model versions (see the
// daemon's POST /admin/reload); the response's model_versions field
// counts columns per version, making a canary's traffic share visible
// per batch.
//
// The process drains in-flight requests on SIGINT/SIGTERM before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sortinghat/internal/gateway"
	"sortinghat/internal/obs"
	"sortinghat/internal/resilience"
	"sortinghat/internal/resilience/faultinject"
	"sortinghat/internal/serve"
)

func main() {
	var (
		replicas   = flag.String("replicas", "", "comma-separated sortinghatd base URLs (required)")
		addr       = flag.String("addr", ":8090", "listen address")
		vnodes     = flag.Int("vnodes", gateway.DefaultVNodes, "virtual nodes per replica on the hash ring")
		hedge      = flag.Duration("hedge", gateway.DefaultHedge, "delay before hedging a slow shard to the next replica (negative disables)")
		timeout    = flag.Duration("timeout", gateway.DefaultTimeout, "per-request deadline (negative disables)")
		probe      = flag.Duration("probe-interval", gateway.DefaultProbeInterval, "replica /healthz polling period")
		maxBatch   = flag.Int("max-batch", serve.DefaultMaxBatch, "max columns per request")
		maxCell    = flag.Int("max-cell", serve.DefaultMaxCellBytes, "max bytes per CSV cell on /v1/infer/csv (answered with 413)")
		queue      = flag.Int("queue-depth", 0, "admission-gate high-water mark in columns (default: 2*max-batch)")
		traceRing  = flag.Int("trace-ring", obs.DefaultTraceRing, "recent request traces kept for GET /debug/traces")
		traceOut   = flag.String("trace-out", "", "append finished request traces to this JSONL file (stitch with `tracecat`)")
		flightRing = flag.Int("flight-ring", obs.DefaultFlightRing, "slowest/errored requests kept for GET /debug/flight")
		pprof      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		drain      = flag.Duration("drain", 15*time.Second, "max time to drain in-flight requests at shutdown")

		brkFailures = flag.Int("breaker-failures", 0, "consecutive shard failures that trip a replica's breaker (default 5)")
		brkProbe    = flag.Duration("breaker-probe", 0, "wait before an open replica breaker probes again; also caps a shedding replica's backoff (default 5s)")
		faultSpec   = flag.String("fault-spec", "", "deterministic fault injection at gateway sites, e.g. 'forward@r1:error:1' (testing only)")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for -fault-spec fault draws")

		netSlack      = flag.Duration("net-slack", gateway.DefaultNetSlack, "network allowance subtracted from the budget propagated via X-Deadline-Ms (negative disables propagation)")
		budgetRatio   = flag.Float64("retry-budget", resilience.DefaultRetryRatio, "retry-budget token deposited per successful shard leg (negative disables the refill)")
		budgetBurst   = flag.Float64("retry-budget-burst", resilience.DefaultRetryBurst, "retry-budget bucket capacity; the bucket starts full")
		inflightMax   = flag.Int("replica-inflight", gateway.DefaultReplicaInflight, "adaptive concurrency ceiling on forwards per replica")
		retryAfterMax = flag.Int("retry-after-max", serve.DefaultRetryAfterMax, "cap in seconds on the Retry-After hint sent with 429/504 answers")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, slog.LevelInfo)

	if *replicas == "" {
		logger.Error("missing -replicas: give at least one sortinghatd base URL")
		os.Exit(2)
	}
	var fleet []string
	for _, a := range strings.Split(*replicas, ",") {
		if a = strings.TrimSpace(strings.TrimSuffix(a, "/")); a != "" {
			fleet = append(fleet, a)
		}
	}

	cfg := gateway.Config{
		Replicas:         fleet,
		VNodes:           *vnodes,
		Hedge:            *hedge,
		Timeout:          *timeout,
		ProbeInterval:    *probe,
		MaxBatch:         *maxBatch,
		MaxCellBytes:     *maxCell,
		QueueDepth:       *queue,
		TraceRing:        *traceRing,
		FlightRing:       *flightRing,
		Logger:           logger,
		EnablePprof:      *pprof,
		FailureThreshold: *brkFailures,
		BreakerProbe:     *brkProbe,
		ReplicaInflight:  *inflightMax,
		NetSlack:         *netSlack,
		RetryBudget: resilience.RetryBudgetConfig{
			Ratio: *budgetRatio,
			Burst: *budgetBurst,
		},
		RetryAfterMax: *retryAfterMax,
	}
	if *faultSpec != "" {
		inj, err := faultinject.Parse(*faultSpec, *faultSeed)
		if err != nil {
			logger.Error("bad -fault-spec", "err", err.Error())
			os.Exit(2)
		}
		cfg.Faults = inj // assigned only when non-nil: a typed nil would defeat the nil-injector check
		logger.Warn("fault injection enabled — testing only", "spec", inj.String(), "seed", *faultSeed)
	}
	if *traceOut != "" {
		sink, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("bad -trace-out", "err", err.Error())
			os.Exit(2)
		}
		defer sink.Close()
		cfg.TraceSink = sink // same caveat as Faults: only a non-nil *os.File may land in the interface
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err.Error())
		os.Exit(1)
	}
	httpSrv := serve.NewHTTPServer(*addr, gw.Handler(), *timeout, 10*time.Second)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving",
		"replicas", len(fleet),
		"addr", *addr,
		"vnodes", *vnodes,
		"hedge", hedge.String(),
		"probe_interval", probe.String())

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight requests", "max_drain", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "err", err.Error())
	}
	gw.Close() // after Shutdown: no handler is still scattering groups
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err.Error())
	}
	logger.Info("stopped")
}
