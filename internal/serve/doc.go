// Package serve turns a trained inference pipeline into the online
// component the paper positions SortingHat as: AutoML platforms (TFDV,
// AutoGluon, TransmogrifAI) call feature type inference per ingested table
// on their hot path, not as an offline table generator. The server
// therefore exposes a *batch-of-columns* API — POST /v1/infer takes every
// column of a table at once — mirroring how platforms ingest whole CSVs
// and amortising request overhead across a table's columns.
//
// A request's body is read once and decoded in one pass
// (ReadInferRequest, wire.go): a hand-written decoder for the fixed
// InferRequest shape that leaves every name and cell as a substring of
// the body, one allocation per request instead of one per cell, and
// accepts exactly what encoding/json would (FuzzDecodeMatchesJSON). The
// serving hot path is then base featurization (descriptive statistics
// from internal/stats plus attribute-name bigram hashing from
// internal/featurize; Section 2.3 of the paper) followed by model
// prediction. A Server parallelises that path across the columns of a
// request on a bounded worker pool shared by all requests, and skips it
// entirely for columns it has seen before via an LRU cache keyed by a
// 128-bit content hash of the column (ColumnHash: MurmurHash3 x64_128
// with a fixed seed over the length-prefixed attribute name and cell
// values, streamed 16 bytes per step).
// Caching is sound because serving uses the deterministic featurizer
// (featurize.ExtractFirstN, the same one Pipeline.Predict uses): equal
// column content always yields equal features, so a cached prediction is
// bit-identical to a recomputed one.
//
// # Endpoints
//
//   - POST /v1/infer — classify a batch of raw columns; returns the
//     9-class prediction with per-class confidences for each column.
//   - POST /v1/infer/csv — classify every column of a table posted as
//     CSV, with adversarial-input limits (column count, cell size)
//     answered by 413 and a UTF-8 BOM on the header stripped.
//   - GET /healthz — liveness/readiness probe with model metadata;
//     status is "degraded" while the prediction breaker is not closed.
//   - GET /metrics — Prometheus text-format metrics from the server's
//     obs.Registry (request/column/cache counters, batch-size and latency
//     quantiles, forest structure gauges), built on the standard library
//     only. The document layout is byte-stable and pinned by test.
//   - GET /debug/traces — the bounded ring of recent finished request
//     traces as JSON span trees: one root infer span per request, column
//     child spans, featurize/predict grandchildren. Offsets and durations
//     are monotonic-only; traces carry no wall-clock timestamps.
//   - GET /debug/pprof/ — net/http/pprof, mounted only with
//     Config.EnablePprof (the -pprof flag of cmd/sortinghatd).
//
// # Observability
//
// The three signals are correlated by request ID: the middleware assigns
// req-N, echoes it as the X-Request-Id response header, attaches it to
// the root trace span, and stamps it on the structured access-log record
// (Config.Logger). Metric handles live in the server's obs.Registry;
// span creation goes through obs.StartSpan, which is a no-op for callers
// that did not start a trace, so the hot path is instrumented
// unconditionally. See ARCHITECTURE.md "Observability" for which layer
// owns which signal.
//
// # Resilience
//
// The serving path never lets one bad column, one slow burst, or one
// faulty model component take the process down (internal/resilience):
//
//   - Panic isolation: the per-column hot path runs featurize and
//     predict under a recover guard. A panic is counted
//     (sortinghatd_panic_recovered_total), logged with its stack, noted
//     on the column's trace span, and converted into a per-column
//     degraded answer; the batch still returns 200 and the worker
//     survives.
//   - Load shedding: a resilience.Gate in front of the task queue
//     reserves capacity for whole requests up front and fast-fails with
//     resilience.ErrOverloaded (HTTP 429 + Retry-After) past
//     Config.QueueDepth. Because the task channel's capacity equals the
//     gate's high-water mark, an admitted column never blocks on the
//     channel send — which is also what fixes the historical deadlock of
//     a no-deadline request against a full queue.
//   - Circuit breaker: prediction runs behind a three-state breaker.
//     Consecutive failures (errors or recovered panics) trip it open;
//     while open, columns skip the ML path; after Breaker.ProbeInterval
//     a single half-open probe decides between closing and re-opening.
//     The probe schedule reads time only through the injected
//     resilience.Clock, so tests drive it deterministically.
//   - Graceful degradation: whenever the ML path is unavailable (panic,
//     error, or open breaker), the column is answered by
//     resilience/rulefallback — the paper's rule-based baseline over the
//     same base features — tagged Degraded with a one-hot probability
//     vector. Degraded answers are never cached, so recovery is not
//     poisoned by fallback results. /healthz reports "degraded" while
//     the breaker is not closed.
//   - Fault injection: Config.Faults accepts a fault-site Injector (see
//     resilience/faultinject); the hot path visits the sites "featurize"
//     and "predict". Production configurations leave it nil.
//
// # Concurrency invariants
//
// The same discipline as internal/ml/tree's training fan-out (the tree is
// race-clean under `go test -race` and gated by cmd/shvet):
//
//   - Ownership by index: the worker handling column i of a request
//     writes only results[i]; the results slice is fully allocated before
//     any task is enqueued, and the handler reads it only after the
//     request's WaitGroup reaches zero (or abandons it wholesale on
//     deadline, never reading partial results).
//   - Read-only model: workers only read the *core.Pipeline; prediction
//     is safe for concurrent use (see the tree package invariants).
//   - Cached values are immutable: a cachedPrediction's Probs slice is
//     never written after insertion; readers share it.
//   - Deadlines propagate: every per-column task carries the request
//     context and is skipped (not cancelled mid-compute) once the
//     deadline passes, so a timed-out request costs at most one in-flight
//     column per worker.
package serve
