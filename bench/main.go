// Command bench is the repository's end-to-end serving benchmark. It
// builds sortinghatd and sortinghatgw from the checkout, trains the
// paper-scale Random Forest, starts the real daemons on loopback ports,
// and drives them from this one process with table-shaped /v1/infer
// batches: a discarded warm-up, then a closed loop on two connections
// (sat), a closed loop on one (c1) and an open loop on a seeded schedule
// (paced). It checks every served answer bit for bit against the
// in-process pipeline and prints each metric as
//
//	<workload> <metric> <value> <unit>
//
// followed by one JSON line {"correct", "attempted", "failed", "metrics"}.
// With -trace 1 it also replays the workload's tables in process through
// the layers' public functions, with a span at every layer boundary, and
// the JSON line carries the per-layer metrics instead of the end-to-end
// ones. See bench/README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload ingest-cold -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload all -seed 1 -trace 1 -trace-out spans.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"sortinghat/internal/core"
	"sortinghat/internal/synth"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: ingest-cold, ingest-warm, fleet-mixed or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs and schedule are generated from")
	seconds := fs.Int("seconds", calibratedSeconds, "measured seconds; phase sizes scale with it")
	trace := fs.Int("trace", 0, "1: also replay the tables in process with spans and report per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the replay's spans to this JSONL file")
	runs := fs.Int("calibrate", 0, "N > 0: run each workload N times untraced and N times traced, seeds from -seed up, each in a fresh process, and print the calibration record")
	spinner := fs.Bool("spinner", false, "internal: run as the CPU spinner the harness starts")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *spinner {
		return spin()
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w.scaled(*seconds))
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -workload ingest-cold|ingest-warm|fleet-mixed|all, -seconds >= 1 and -trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(2)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *runs > 0 {
		if err := calibrate(ctx, selected, *runs, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer removeAll(tmp)

	if err := buildDaemons(ctx, filepath.Join(tmp, "bin")); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sp, err := startSpinner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer sp.stop()
	e, err := prepare(ctx, tmp, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		r, err := runWorkload(ctx, e, w, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		out.add(w.name, r, e.trace, len(selected) > 1)
	}
	if *traceOut != "" && e.trace {
		if err := writeSpans(*traceOut, e.rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// prepare trains, saves and reloads the model; training and saving count
// toward setup_s.
func prepare(ctx context.Context, tmp string, trace bool) (*env, error) {
	e := &env{binDir: filepath.Join(tmp, "bin"), tmpDir: tmp, model: filepath.Join(tmp, "model.gob"), trace: trace}
	if trace {
		e.rec = newRecorder()
	}
	t0 := time.Now()
	trained := make(chan error, 1)
	go func() {
		pipe, err := core.TrainCtx(ctx, synth.GenerateCorpus(synth.DefaultCorpusConfig()), core.DefaultOptions())
		if err == nil {
			err = pipe.SaveFile(e.model)
		}
		trained <- err
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case err := <-trained:
		if err != nil {
			return nil, fmt.Errorf("training the model: %w", err)
		}
	}
	e.train = time.Since(t0)
	pipe, err := core.LoadFile(e.model)
	if err != nil {
		return nil, err
	}
	if pipe.Forest == nil {
		return nil, errors.New("the default options no longer train a Random Forest")
	}
	e.pipe = pipe
	return e, nil
}

// jsonMetric is one metric of the JSON result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line printed last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// add prints a workload's metrics as text lines and folds the run into
// the JSON result: the end-to-end metrics, or the per-layer ones in a
// traced run. With several workloads the JSON keys carry the workload
// name.
func (res *result) add(name string, r *report, trace, prefix bool) {
	for _, group := range [][]metric{r.endToEnd, r.notes, r.perLayer} {
		for _, m := range group {
			fmt.Printf("%s %s %s %s\n", name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		}
	}
	for _, reason := range r.invalid {
		fmt.Printf("%s invalid %s\n", name, reason)
	}
	if r.mismatches > 0 || len(r.invalid) > 0 {
		res.Correct = false
	}
	res.Attempted += r.attempted
	res.Failed += r.failed
	ms := r.endToEnd
	if trace {
		ms = r.perLayer
	}
	for _, m := range ms {
		key := m.name
		if prefix {
			key = name + "/" + key
		}
		res.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
	}
}

// writeSpans writes the replay's spans as JSONL.
func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	if err := rec.writeJSONL(f); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}
