package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sortinghat/internal/core"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one workload run.
type report struct {
	endToEnd   []metric
	perLayer   []metric
	notes      []metric // printed beside the metrics, not in the JSON line
	attempted  int
	failed     int
	mismatches int
	invalid    []string // failed validity guards, with reasons
}

// env is what every workload run of one invocation shares.
type env struct {
	binDir, tmpDir, model string
	pipe                  *core.Pipeline // the saved model, loaded back in process
	train                 time.Duration  // training and saving the model
	trace                 bool
	rec                   *recorder
}

// warmUpDuration is the discarded closed-loop phase before the timed ones.
const warmUpDuration = 3 * time.Second

// setupRepeats is how many times a run starts its stack; setup_s reports
// the median.
const setupRepeats = 3

// maxLateness bounds the open-loop generator's p99 lateness in a valid
// run. Latency is timed from the due time, so lateness is never hidden;
// the bound only rejects a generator that fell behind its schedule. It
// sits above the 2-4 ms by which two busy virtual CPUs delay the
// dispatcher's wake-ups when it may not use a real-time priority.
const maxLateness = 5 * time.Millisecond

// snapshot is the state of the serving processes and the harness at one
// instant.
type snapshot struct {
	at   time.Time
	prom []promSample    // by stack process
	cpu  []time.Duration // by stack process
	self time.Duration   // the harness's own CPU time
}

func takeSnapshot(st *stack) (snapshot, error) {
	s := snapshot{at: time.Now()}
	for _, d := range st.procs {
		p, err := scrape(d)
		if err != nil {
			return s, err
		}
		c, err := cpuTime(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return s, fmt.Errorf("reading %s CPU time: %w", d.role, err)
		}
		s.prom = append(s.prom, p)
		s.cpu = append(s.cpu, c)
	}
	self, err := cpuTime("self")
	if err != nil {
		return s, fmt.Errorf("reading harness CPU time: %w", err)
	}
	s.self = self
	return s, nil
}

// sumDelta sums a series' change over the stack's processes of role.
func sumDelta(st *stack, before, after snapshot, role, name string) float64 {
	var v float64
	for i, d := range st.procs {
		if d.role == role {
			v += delta(before.prom[i], after.prom[i], name)
		}
	}
	return v
}

// cpuDelta sums the CPU time the stack's processes of role used.
func cpuDelta(st *stack, before, after snapshot, role string) time.Duration {
	var v time.Duration
	for i, d := range st.procs {
		if d.role == role {
			v += after.cpu[i] - before.cpu[i]
		}
	}
	return v
}

// runWorkload runs one workload end to end and, in a traced run, replays
// its tables in process.
func runWorkload(ctx context.Context, e *env, w workload, seed int64) (*report, error) {
	n := w.satTables + w.c1Tables + w.pacedTables
	in, err := generate(w, seed, n)
	if err != nil {
		return nil, err
	}

	// Set-up: spawn the stack until healthy, several times; keep the last.
	var spawns []float64 // seconds
	var st *stack
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		st, err = startStack(ctx, e.binDir, e.model, e.tmpDir, w.fleet)
		if err != nil {
			return nil, err
		}
		spawns = append(spawns, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			st.stop()
		}
	}
	defer st.stop()
	ready, err := takeSnapshot(st)
	if err != nil {
		return nil, err
	}

	client := newClient(2)
	warmUp(ctx, client, st.front.url, in.pool, in.warmUp, 2, warmUpDuration)

	before, err := takeSnapshot(st)
	if err != nil {
		return nil, err
	}
	ran, err := runPhases(ctx, st, client, w, in, schedule(seed, w.pacedTables, w.pacedRate))
	if err != nil {
		return nil, err
	}
	after, err := takeSnapshot(st)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := st.alive(); err != nil {
		return nil, err
	}
	var rss int64
	for _, d := range st.procs {
		b, err := peakRSS(d.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("reading %s peak RSS: %w", d.role, err)
		}
		rss += b
	}
	st.stop()

	orc := &oracle{pipe: e.pipe, pool: in.pool}
	sat, c1, paced := ran.sat, ran.c1, ran.paced
	orc.prepare(sat, c1, paced)
	all := orc.check(sat).add(orc.check(c1)).add(orc.check(paced))

	r := &report{attempted: all.attempted, failed: all.failed, mismatches: all.mismatches}
	c1Tail := summarize(latencies(c1))
	pacedTail := summarize(latencies(paced))
	lateTail := summarize(lateness(paced))
	accuracy := 0.0
	if all.served > 0 {
		accuracy = 100 * float64(all.correct) / float64(all.served)
	}
	r.endToEnd = []metric{
		{"setup_s", e.train.Seconds() + median(spawns), "s"},
		{"goodput_cols_per_s", median(ran.goodputs(orc)), "cols/s"},
		{"lat_p50_ms", ms(c1Tail.p50), "ms"},
		{"lat_p99_ms", ms(c1Tail.high), "ms"},
		{"accuracy_pct", accuracy, "%"},
		{"peak_rss_mb", float64(rss) / 1e6, "MB"},
	}
	r.notes = []metric{
		{"error_rate", float64(all.failed) / float64(all.attempted), "fraction"},
		{"mismatches", float64(all.mismatches), "count"},
		{"lat_p99_ms.percentile", c1Tail.highPct, "pct"},
		{"lat_p99_ms.samples", float64(c1Tail.n), "count"},
		{"paced_p99_ms.percentile", pacedTail.highPct, "pct"},
		{"paced_p99_ms.samples", float64(pacedTail.n), "count"},
		{"setup.train_s", e.train.Seconds(), "s"},
		{"setup.spawn_s", median(spawns), "s"},
	}

	// Per-layer metrics read from outside the processes.
	const d, gw = "sortinghatd", "sortinghatgw"
	hits := sumDelta(st, before, after, d, "sortinghatd_cache_hits_total")
	misses := sumDelta(st, before, after, d, "sortinghatd_cache_misses_total")
	runMisses := sumDelta(st, ready, after, d, "sortinghatd_cache_misses_total")
	timedSeconds := after.at.Sub(before.at).Seconds()
	cols := float64(all.attempted)
	tables := float64(len(sat) + len(c1) + len(paced))
	hitRatio := ratio(hits, hits+misses)
	rejected := 0.0
	for _, name := range []string{"sortinghatd_shed_total", "sortinghatd_deadline_expired_in_queue_total", "sortinghatd_degraded_total", "sortinghatd_request_timeouts_total"} {
		rejected += sumDelta(st, before, after, d, name)
	}
	var legs, hedge, fallback, rerouted float64
	if w.fleet {
		gwCols := sumDelta(st, before, after, gw, "sortinghatgw_columns_total")
		groups := float64(all.shards)
		legs = ratio(sumDelta(st, before, after, gw, "sortinghatgw_shard_requests_total"), groups)
		hedge = ratio(sumDelta(st, before, after, gw, "sortinghatgw_hedged_requests_total"), groups)
		fallback = ratio(sumDelta(st, before, after, gw, "sortinghatgw_fallback_columns_total"), gwCols)
		rerouted = ratio(sumDelta(st, before, after, gw, "sortinghatgw_rerouted_columns_total"), gwCols)
	}
	heap := 0.0
	for i, p := range st.procs {
		if p.role == d {
			heap += after.prom[i]["sortinghatd_heap_bytes"]
		}
	}
	r.perLayer = []metric{
		{"paced_p99_ms", ms(pacedTail.high), "ms"},
		{"serve.cache_hit_ratio", hitRatio, "ratio"},
		{"serve.cache_evictions_per_miss", ratio(sumDelta(st, ready, after, d, "sortinghatd_cache_evictions_total"), runMisses), "ratio"},
		{"serve.queue_wait_ms_mean", 1000 * ratio(ran.queueSum, ran.queueCount), "ms"},
		{"serve.featurize_ms_per_miss", 1000 * ratio(sumDelta(st, ready, after, d, "sortinghatd_featurize_seconds_sum"), sumDelta(st, ready, after, d, "sortinghatd_featurize_seconds_count")), "ms"},
		{"serve.gc_pause_ms_per_s", 1000 * sumDelta(st, before, after, d, "sortinghatd_gc_pause_seconds_total") / timedSeconds, "ms/s"},
		{"serve.heap_mb", heap / 1e6, "MB"},
		{"serve.rejected_cols", rejected, "count"},
		{"gateway.legs_per_group", legs, "ratio"},
		{"gateway.hedge_ratio", hedge, "ratio"},
		{"gateway.fallback_col_share", fallback, "ratio"},
		{"gateway.rerouted_col_share", rerouted, "ratio"},
		{"sortinghatd.cpu_us_per_col", us(cpuDelta(st, before, after, d)) / cols, "us"},
		{"sortinghatgw.cpu_us_per_col", us(cpuDelta(st, before, after, gw)) / cols, "us"},
		{"loadgen.cpu_us_per_table", us(after.self-before.self) / tables, "us"},
		{"loadgen.late_p99_ms", ms(lateTail.high), "ms"},
	}

	// Validity guards: the run must exercise the layers it claims.
	if hitRatio < w.hitLo || hitRatio > w.hitHi {
		r.invalid = append(r.invalid, fmt.Sprintf("cache hit ratio %.3f outside the workload's band [%.2f, %.2f]", hitRatio, w.hitLo, w.hitHi))
	}
	if rejected != 0 {
		r.invalid = append(r.invalid, fmt.Sprintf("serve.rejected_cols = %.0f, want 0", rejected))
	}
	if fallback != 0 {
		r.invalid = append(r.invalid, fmt.Sprintf("gateway.fallback_col_share = %g, want 0", fallback))
	}
	if lateTail.high > maxLateness {
		r.invalid = append(r.invalid, fmt.Sprintf("loadgen.late_p99_ms = %.3f, above %v", ms(lateTail.high), maxLateness))
	}

	if e.trace {
		if err := addReplayMetrics(ctx, e, w, in, c1, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// addReplayMetrics replays the first c1 tables in process and adds the
// per-layer metrics the replay measures.
func addReplayMetrics(ctx context.Context, e *env, w workload, in inputs, c1 []shot, r *report) error {
	k := w.replay
	if k > len(c1) {
		k = len(c1)
	}
	// Copy out the tables the replay needs, so the rest of the inputs and
	// answers can be collected first: a large live heap would slow the
	// in-process stack's garbage collection down compared to the daemons'.
	warm := make([]*table, in.primed)
	for i := range warm {
		t := in.pool[i]
		warm[i] = &t
	}
	tables := make([]*table, k)
	var c1Lat time.Duration
	for i := 0; i < k; i++ {
		t := in.pool[c1[i].table]
		tables[i] = &t
		c1Lat += c1[i].lat
	}
	runtime.GC()
	res, err := replay(ctx, e.pipe, e.rec, w.fleet, warm, tables)
	if err != nil {
		return err
	}
	lt := res.layers
	cols := float64(lt.cols)
	n := float64(res.tables)
	var self int64
	for _, s := range res.selfByTable {
		self += s
	}
	perCol := func(name string) float64 { return float64(res.spanSums[name]) / 1e3 / cols }
	layerSum := lt.hash + lt.sample + lt.stats + lt.vector + lt.predict
	r.perLayer = append(r.perLayer,
		metric{"serve.decode_us_per_col", perCol(spanDecode), "us"},
		metric{"serve.encode_us_per_col", perCol(spanEncode), "us"},
		metric{"serve.hash_us_per_col", perCol(spanHash), "us"},
		metric{"data.sample_us_per_col", us(lt.sample) / cols, "us"},
		metric{"stats.compute_us_per_col", us(lt.stats) / cols, "us"},
		metric{"stats.ns_per_cell", float64(lt.stats.Nanoseconds()) / float64(lt.cells), "ns"},
		metric{"featurize.vector_us_per_col", us(lt.vector) / cols, "us"},
		metric{"tree.predict_us_per_col", us(lt.predict) / cols, "us"},
		metric{"serve.pool_overhead_us_per_col", us(lt.inferNoCache-layerSum) / cols, "us"},
		metric{"serve.handler_self_us_per_table", float64(res.selfSums[spanHandler]) / 1e3 / n, "us"},
		metric{"gateway.self_us_per_table", float64(res.selfSums[spanGateway]) / 1e3 / n, "us"},
		metric{"trace.unaccounted_pct", 100 * (1 - float64(self)/float64(c1Lat.Nanoseconds())), "%"},
		metric{"trace.overhead_pct", 100 * (float64(res.rtTraced)/float64(res.rtUntraced) - 1), "%"},
	)
	return nil
}

// rounds is how many times a run cycles through its timed phases. Each
// phase is split evenly over the rounds, so every metric samples the
// whole run rather than one stretch of it, and goodput is the median of
// its rounds.
const rounds = 5

// timed is what the timed phases sent and got back, each phase's shots
// in execution order.
type timed struct {
	sat, c1, paced []shot
	satRounds      []int           // index in sat where each round starts
	satWalls       []time.Duration // sat's wall time in each round
	// queueSum and queueCount are the sortinghatd_queue_seconds deltas
	// over the paced parts.
	queueSum, queueCount float64
}

// runPhases runs the rounds, walking the workload's order in execution
// order, so no table is sent again before the pool has cycled.
func runPhases(ctx context.Context, st *stack, client *http.Client, w workload, in inputs, due []time.Duration) (*timed, error) {
	url := st.front.url
	client1 := newClient(1)
	next := 0
	take := func(total, r int) []int {
		k := total*(r+1)/rounds - total*r/rounds
		o := in.order[next : next+k]
		next += k
		return o
	}
	t := &timed{}
	for r := 0; r < rounds; r++ {
		t.satRounds = append(t.satRounds, len(t.sat))
		sat, wall := closedLoop(ctx, client, url, in.pool, take(w.satTables, r), 2)
		t.sat, t.satWalls = append(t.sat, sat...), append(t.satWalls, wall)
		c1, _ := closedLoop(ctx, client1, url, in.pool, take(w.c1Tables, r), 1)
		t.c1 = append(t.c1, c1...)

		a := w.pacedTables * r / rounds
		order := take(w.pacedTables, r)
		seg := make([]time.Duration, len(order))
		for i := range seg {
			seg[i] = due[a+i] - due[a]
		}
		pre, err := takeSnapshot(st)
		if err != nil {
			return nil, err
		}
		paced, _ := openLoop(ctx, client, url, in.pool, order, seg)
		t.paced = append(t.paced, paced...)
		post, err := takeSnapshot(st)
		if err != nil {
			return nil, err
		}
		t.queueSum += sumDelta(st, pre, post, "sortinghatd", "sortinghatd_queue_seconds_sum")
		t.queueCount += sumDelta(st, pre, post, "sortinghatd", "sortinghatd_queue_seconds_count")
	}
	return t, nil
}

// goodputs returns sat's goodput in each round, in columns per second.
func (t *timed) goodputs(orc *oracle) []float64 {
	out := make([]float64, len(t.satRounds))
	for r, start := range t.satRounds {
		end := len(t.sat)
		if r+1 < len(t.satRounds) {
			end = t.satRounds[r+1]
		}
		out[r] = float64(orc.check(t.sat[start:end]).good) / t.satWalls[r].Seconds()
	}
	return out
}

// latencies returns a phase's latencies; a failed request counts as
// missing every limit.
func latencies(shots []shot) []time.Duration {
	out := make([]time.Duration, len(shots))
	for i, s := range shots {
		out[i] = s.lat
		if s.status != http.StatusOK {
			out[i] = math.MaxInt64
		}
	}
	return out
}

// lateness returns how late the open-loop generator sent each request.
func lateness(shots []shot) []time.Duration {
	out := make([]time.Duration, len(shots))
	for i, s := range shots {
		out[i] = s.late
	}
	return out
}

// median is the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// removeAll deletes a temp directory, reporting failure on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: removing", dir+":", err)
	}
}
