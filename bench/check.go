package main

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/core"
	"sortinghat/internal/serve"
)

// answer is the part of a daemon's or the gateway's /v1/infer response
// the harness reads; Shards is only sent by the gateway.
type answer struct {
	Predictions []serve.InferPrediction `json:"predictions"`
	Shards      int                     `json:"shards"`
}

// expected is the in-process pipeline's prediction for one column.
type expected struct {
	typ   ftype.FeatureType
	probs []float64
}

// oracle predicts pool columns in process with the same gob model the
// daemons serve, computing each table once.
type oracle struct {
	pipe *core.Pipeline
	pool []table
	want [][]expected // by pool index; nil until computed
}

// prepare predicts every table the shots reference, on two goroutines.
func (o *oracle) prepare(phases ...[]shot) {
	if o.want == nil {
		o.want = make([][]expected, len(o.pool))
	}
	var todo []int
	seen := make([]bool, len(o.pool))
	for _, shots := range phases {
		for _, s := range shots {
			if !seen[s.table] && o.want[s.table] == nil {
				seen[s.table] = true
				todo = append(todo, s.table)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(todo); k += 2 {
				t := &o.pool[todo[k]]
				exp := make([]expected, len(t.cols))
				for j := range t.cols {
					exp[j].typ, exp[j].probs = o.pipe.Predict(&t.cols[j])
				}
				o.want[todo[k]] = exp
			}
		}(w)
	}
	wg.Wait()
}

// tally is the outcome of checking one phase's answers.
type tally struct {
	attempted  int // columns sent
	failed     int // columns in non-200 answers, transport errors or degraded
	good       int // columns answered 200, not degraded, within tableLimit
	correct    int // served type equals the column's label
	served     int // non-degraded columns checked against the oracle
	mismatches int // served answers that differ from the in-process pipeline
	shards     int // gateway shard groups across the phase's answers
}

// tableLimit is the latency limit a table's answer must meet for its
// columns to count toward goodput: 100 ms, plus 1 ms per column so that
// a wide table (the suite has one of 216 columns) is not held to the
// limit of an 8-column one.
func tableLimit(cols int) time.Duration {
	return 100*time.Millisecond + time.Duration(cols)*time.Millisecond
}

// check decodes every answer of a phase and compares each non-degraded
// prediction, type and every probability bit for bit, with the oracle.
// Position j of an answer must be column j of the request, so a fleet
// answer out of request order is a mismatch.
func (o *oracle) check(shots []shot) tally {
	var t tally
	for _, s := range shots {
		tbl := &o.pool[s.table]
		n := len(tbl.cols)
		t.attempted += n
		if s.status != http.StatusOK {
			t.failed += n
			continue
		}
		var a answer
		if err := json.Unmarshal(s.body, &a); err != nil || len(a.Predictions) != n {
			t.failed += n
			t.mismatches++
			continue
		}
		t.shards += a.Shards
		want := o.want[s.table]
		for j, p := range a.Predictions {
			if p.Degraded {
				t.failed++
				continue
			}
			t.served++
			if !matches(p, tbl.cols[j].Name, want[j]) {
				t.mismatches++
				continue
			}
			if s.lat <= tableLimit(n) {
				t.good++
			}
			if want[j].typ == tbl.labels[j] {
				t.correct++
			}
		}
	}
	return t
}

// matches reports whether a served prediction is exactly the in-process
// one: same column name, type, and bit-identical probabilities and
// confidence.
func matches(p serve.InferPrediction, name string, want expected) bool {
	if p.Name != name || p.Type != want.typ.String() || len(p.Probs) != len(want.probs) {
		return false
	}
	for c, prob := range want.probs {
		got, ok := p.Probs[ftype.FeatureType(c).String()]
		if !ok || math.Float64bits(got) != math.Float64bits(prob) {
			return false
		}
	}
	return math.Float64bits(p.Confidence) == math.Float64bits(want.probs[want.typ.Index()])
}

// add sums two tallies.
func (t tally) add(u tally) tally {
	return tally{
		attempted:  t.attempted + u.attempted,
		failed:     t.failed + u.failed,
		good:       t.good + u.good,
		correct:    t.correct + u.correct,
		served:     t.served + u.served,
		mismatches: t.mismatches + u.mismatches,
		shards:     t.shards + u.shards,
	}
}
