package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/data"
	"sortinghat/internal/serve"
	"sortinghat/internal/synth"
)

// table is one request of a workload: every column of one ingested
// table, the ground-truth label of each column, and the encoded
// /v1/infer body the daemons receive.
type table struct {
	cols   []data.Column
	labels []ftype.FeatureType
	body   []byte
}

// workload is one traffic mix. The phase sizes and the paced rate are
// frozen from the calibration in calibration.json for a 15 s run and
// scale linearly with -seconds, so a run always measures a fixed amount
// of work rather than a fixed time window.
type workload struct {
	name  string
	fleet bool // sortinghatgw in front of two 1-worker replicas

	satTables   int     // closed loop, 2 connections
	c1Tables    int     // closed loop, 1 connection
	pacedTables int     // open loop
	pacedRate   float64 // tables/s, about 40% of the calibrated goodput
	replay      int     // c1 tables replayed in process by a traced run

	// hitLo and hitHi bound the cache-hit ratio (over lookups in the timed
	// phases) that proves the workload exercises the layers it claims.
	hitLo, hitHi float64
}

// calibratedSeconds is the -seconds value the frozen phase sizes were
// calibrated for.
const calibratedSeconds = 15

var workloads = []workload{
	{name: "ingest-cold", satTables: 1400, c1Tables: 1000, pacedTables: 1000, pacedRate: 140, replay: 300, hitLo: 0, hitHi: 0.05},
	{name: "ingest-warm", satTables: 4000, c1Tables: 1200, pacedTables: 1200, pacedRate: 330, replay: 300, hitLo: 0.95, hitHi: 1},
	{name: "fleet-mixed", fleet: true, satTables: 500, c1Tables: 900, pacedTables: 300, pacedRate: 46, replay: 150, hitLo: 0.35, hitHi: 0.65},
}

// scaled returns the workload with its phase sizes scaled to seconds.
func (w workload) scaled(seconds int) workload {
	scale := func(n int) int {
		return (n*seconds + calibratedSeconds - 1) / calibratedSeconds
	}
	w.satTables = scale(w.satTables)
	w.c1Tables = scale(w.c1Tables)
	w.pacedTables = scale(w.pacedTables)
	return w
}

// inputs is a workload's generated request pool and the orders in which
// the phases walk it: request i of the timed phases sends
// pool[order[i]], and the discarded warm-up cycles through warmUp.
type inputs struct {
	pool   []table
	order  []int
	warmUp []int
	// primed is how many leading pool tables the timed phases find
	// cached: the whole ingest-warm pool and the fleet's hot tables.
	primed int
}

// heldOutCorpusColumns sizes the held-out corpus: more than twice the
// daemon's default 4096-column cache, so cyclic LRU access always misses.
const heldOutCorpusColumns = 12000

// freshSuites is the number of fresh downstream-suite instances in the
// fleet pool: enough columns that each replica's share of them exceeds
// its cache.
const freshSuites = 20

// warmTables is the size of the ingest-warm pool: about 1,600 columns,
// few enough that every column stays cached, and enough tables that the
// pool's work and label mix hardly vary with the seed.
const warmTables = 200

// generate builds the workload's inputs from seed alone. n is the number
// of requests the timed phases send.
//
// The warm-up must leave cached no table the timed phases send before a
// pool larger than the cache has evicted it: ingest-cold warms up on the
// second half of its pool, which the timed phases reach only after the
// first half pushed it out, and fleet-mixed on the last quarter of its
// fresh tables for the same reason.
func generate(w workload, seed int64, n int) (inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var in inputs
	switch w.name {
	case "ingest-cold", "ingest-warm":
		pool := corpusTables(heldOutSeed(seed), heldOutCorpusColumns)
		if err := encodeBodies(pool); err != nil {
			return inputs{}, err
		}
		if w.name == "ingest-warm" {
			pool = stratified(rng, pool, warmTables)
			in.primed = len(pool)
		}
		in.pool = pool
		in.order = make([]int, n)
		for i := range in.order {
			in.order[i] = i % len(pool)
		}
		in.warmUp = in.order[:len(pool)]
		if w.name == "ingest-cold" {
			in.warmUp = in.order[len(pool)/2 : len(pool)]
		}
	case "fleet-mixed":
		hot := suiteTables(seed, 0)
		in.pool = hot
		in.primed = len(hot)
		for k := 1; k <= freshSuites; k++ {
			in.pool = append(in.pool, suiteTables(seed, k)...)
		}
		fresh := make([]int, len(in.pool)-len(hot))
		for i := range fresh {
			fresh[i] = len(hot) + i
		}
		in.order = mixed(rng, n, len(hot), fresh)
		tail := fresh[3*len(fresh)/4:]
		in.warmUp = mixed(rng, 2*len(tail), len(hot), tail)
		if err := encodeBodies(in.pool); err != nil {
			return inputs{}, err
		}
	default:
		return inputs{}, fmt.Errorf("unknown workload %q", w.name)
	}
	return in, nil
}

// encodeBodies sets each table's /v1/infer request body.
func encodeBodies(pool []table) error {
	for i := range pool {
		body, err := json.Marshal(requestOf(pool[i].cols))
		if err != nil {
			return fmt.Errorf("encoding request: %w", err)
		}
		pool[i].body = body
	}
	return nil
}

// mixed returns n fleet requests, each with probability 0.5 a hot table
// (pool indices below hot) and otherwise the next of fresh, cycled. The
// draws are balanced in pairs (one hot, one fresh, in seeded order) and
// hot tables are drawn in seeded passes over all of them, so every phase
// sees the same mix of widths: the 216-column table alone holds 38% of
// the suite's columns.
func mixed(rng *rand.Rand, n, hot int, fresh []int) []int {
	var pass []int
	out := make([]int, n)
	next := 0
	for i := 0; i < n; i += 2 {
		hotFirst := rng.Intn(2) == 0
		for j := i; j < i+2 && j < n; j++ {
			if (j == i) != hotFirst {
				out[j] = fresh[next%len(fresh)]
				next++
				continue
			}
			if len(pass) == 0 {
				pass = rng.Perm(hot)
			}
			out[j], pass = pass[0], pass[1:]
		}
	}
	return out
}

// stratified picks k tables, one at random from each of k equal strata of
// the pool ordered by request size, so the sample's total work (decoding
// and hashing cost per byte) hardly varies with the seed.
func stratified(rng *rand.Rand, pool []table, k int) []table {
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return len(pool[idx[a]].body) < len(pool[idx[b]].body) })
	out := make([]table, k)
	for s := range out {
		lo, hi := s*len(idx)/k, (s+1)*len(idx)/k
		out[s] = pool[idx[lo+rng.Intn(hi-lo)]]
	}
	rng.Shuffle(k, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// heldOutSeed derives the held-out corpus seed, never the training
// corpus's seed 7.
func heldOutSeed(seed int64) int64 {
	s := seed*7919 + 1000
	if s == synth.DefaultCorpusConfig().Seed {
		s++
	}
	return s
}

// corpusTables generates an n-column held-out labeled corpus and groups
// it by source file into tables of 4-12 columns x 40-1200 rows.
func corpusTables(seed int64, n int) []table {
	cfg := synth.DefaultCorpusConfig()
	cfg.N = n
	cfg.Seed = seed
	corpus := synth.GenerateCorpus(cfg)
	var out []table
	for i := 0; i < len(corpus); {
		j := i
		var t table
		for j < len(corpus) && corpus[j].FileID == corpus[i].FileID {
			t.cols = append(t.cols, corpus[j].Column)
			t.labels = append(t.labels, corpus[j].Label)
			j++
		}
		out = append(out, t)
		i = j
	}
	return out
}

// suiteTables generates one instance of the 30-table downstream suite
// with the target column dropped. Instance k's dataset seeds occupy
// their own range, so no two instances share a dataset seed.
func suiteTables(seed int64, k int) []table {
	suite := synth.GenerateSuite(seed*100003 + int64(k)*3001)
	out := make([]table, len(suite))
	for i, d := range suite {
		out[i] = table{cols: d.Data.Columns[:len(d.Data.Columns)-1], labels: d.TrueTypes}
	}
	return out
}

// requestOf builds the /v1/infer body for a table.
func requestOf(cols []data.Column) serve.InferRequest {
	req := serve.InferRequest{Columns: make([]serve.InferColumn, len(cols))}
	for i, c := range cols {
		req.Columns[i] = serve.InferColumn{Name: c.Name, Values: c.Values}
	}
	return req
}

// schedule returns the paced phase's due times as offsets from its
// start: Poisson arrivals at rate tables/s, drawn from seed.
func schedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		out[i] = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / rate
	}
	return out
}
