// Package analysis implements shvet, a small static-analysis framework
// built entirely on the standard library (go/parser, go/ast, go/types,
// go/token). It exists because this repository's value as a benchmark
// reproduction rests on bit-reproducible results: the analyzers are tuned
// to the failure modes that silently break determinism or correctness in
// numeric Go code.
//
// The thirteen analyzers:
//
//   - global-rand: uses of top-level math/rand functions (rand.Float64,
//     rand.Shuffle, ...) that draw from the process-global source instead
//     of an injected, seeded *rand.Rand.
//   - map-order: range over a map whose body appends to a slice, writes to
//     an io.Writer, or calls a fmt print function, letting map iteration
//     order escape into results. Collecting keys and sorting them after
//     the loop is recognised and not flagged.
//   - float-eq: == or != on floating-point operands outside test files.
//     Comparisons against an exact-zero constant and self-comparisons
//     (the x != x NaN idiom) are exempt.
//   - unchecked-err: expression statements that discard an error result
//     from a non-fmt call. Deferred calls, go statements, fmt.*, and the
//     always-nil writers (strings.Builder, bytes.Buffer) are exempt;
//     assign to _ to discard explicitly.
//   - doc-comment: exported package-level identifiers without a doc
//     comment, and packages without a package comment. Group comments,
//     end-of-line spec comments and methods on unexported receivers are
//     recognised; _test.go files are exempt.
//   - lock-balance: intra-procedural Lock/Unlock pairing per mutex
//     object. Flags early returns and fall-through paths that leave a
//     mutex locked (unless a deferred unlock covers it) and locks held
//     across blocking operations: channel sends/receives, select without
//     a default, range over a channel, time.Sleep, and os/net I/O.
//   - nondet-flow (module-level): functions reachable from the exported
//     train/predict/experiment entry points that transitively reach a
//     nondeterminism source — global math/rand, time.Now/time.Since, or
//     a map-order escape. Reported at the source call site with the full
//     call chain from the entry point.
//   - ctx-flow (module-level): a function that receives a
//     context.Context but passes context.Background()/context.TODO() to
//     a ctx-accepting callee, or calls X when a ctx-threaded XCtx
//     sibling exists — both break span trees and deadline propagation.
//   - goroutine-leak (module-level): go statements whose goroutine body
//     loops forever with no termination signal in sight (no
//     context.Context, no channel or select, no sync.WaitGroup/Cond).
//   - alloc-in-loop (module-level, hot region only): allocations inside
//     loops on the serving hot path — make/new calls, slice and map
//     composite literals, and appends that grow a slice declared without
//     capacity outside the loop.
//   - string-churn (module-level, hot region only): per-iteration string
//     work in hot loops — string<->[]byte/[]rune conversions,
//     fmt.Sprintf/Sprint/Sprintln/Errorf calls, and string concatenation
//     that builds garbage each pass instead of using strings.Builder or
//     strconv.
//   - defer-in-loop (module-level, hot region only): defer statements
//     inside loops, which pile up until function exit (the classic
//     file-handle leak in batch loops).
//   - boxing (module-level, hot region only): non-constant numeric or
//     boolean values passed to interface-typed parameters inside hot
//     loops, heap-boxing one value per iteration.
//
// The four performance-cost analyzers report only inside the hot region:
// the call-graph closure of the exported Predict*/Infer*/Featurize*/
// Extract* entry points, plus any function explicitly rooted with a
//
//	//shvet:hotpath <reason>
//
// directive on (or directly above) its declaration — the escape hatch for
// hot code the static graph cannot see, such as worker-pool bodies invoked
// through channels. A hotpath directive that attaches to no function
// declaration is reported under the "directive" pseudo-analyzer, exactly
// like a malformed //shvet:ignore. Everything outside the hot region may
// allocate freely: cold-path clarity beats cold-path microtuning. Each
// finding carries the entry-point chain that makes it hot, and the
// committed benchmark baseline (BENCH_serve.json, enforced by
// cmd/benchdiff) pins the resulting allocation counts.
//
// The module-level analyzers run over a whole-module call graph (see
// CallGraph) built on the same loader; nodes and edges are
// deterministically ordered, so reports are byte-stable run to run.
//
// Findings can be suppressed with a directive comment:
//
//	//shvet:ignore <analyzer>[,<analyzer>...] <reason>
//
// An end-of-line directive suppresses findings on its own line; a
// directive alone on a line suppresses findings on the following line.
// The analyzer list may be "all" and may contain spaces after commas. A
// reason is required. A malformed directive — unknown analyzer name,
// missing reason, or a standalone directive on the last line of a file —
// is itself reported as a finding (analyzer "directive") and cannot be
// suppressed.
//
// To add an analyzer: create a file in this package defining an
// *Analyzer with a unique Name and either a Run func that walks
// pass.Files and calls pass.Reportf, or a RunModule func that consumes
// the call graph, then append it to All. Add a fixture package under
// testdata/fixtures/<name>/ with "// want <name>" markers and it is
// picked up by the fixture test automatically.
package analysis
