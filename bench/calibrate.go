package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// calibration is the record -calibrate prints: the machine, and for each
// workload its frozen phase sizes and every metric's distribution over
// the runs, end-to-end metrics from untraced runs and per-layer ones
// from traced runs.
type calibration struct {
	Machine   machine                        `json:"machine"`
	Seconds   int                            `json:"seconds"`
	Runs      int                            `json:"runs"`
	Seeds     []int64                        `json:"seeds"`
	Workloads map[string]workloadCalibration `json:"workloads"`
}

type machine struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Kernel string `json:"kernel"`
	Go     string `json:"go"`
}

type workloadCalibration struct {
	SatTables   int                   `json:"sat_tables"`
	C1Tables    int                   `json:"c1_tables"`
	PacedTables int                   `json:"paced_tables"`
	PacedRate   float64               `json:"paced_rate_tables_per_s"`
	Metrics     map[string]metricDist `json:"metrics"`
}

// metricDist is one metric over the calibration runs. Q1 and Q3 are the
// quartiles by the exclusive method (Python's statistics.quantiles
// default); Spread is (Q3 - Q1) / Median.
type metricDist struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// calibrate runs each selected workload runs times untraced and runs
// times traced, each run a fresh invocation of this program with its own
// seed, and prints the calibration record.
func calibrate(ctx context.Context, selected []workload, runs int, seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the harness binary: %w", err)
	}
	rec := calibration{Machine: describeMachine(), Seconds: seconds, Runs: runs, Workloads: map[string]workloadCalibration{}}
	for k := 0; k < runs; k++ {
		rec.Seeds = append(rec.Seeds, seed+int64(k))
	}
	for _, w := range selected {
		wc := workloadCalibration{SatTables: w.satTables, C1Tables: w.c1Tables, PacedTables: w.pacedTables, PacedRate: w.pacedRate, Metrics: map[string]metricDist{}}
		for _, trace := range []string{"0", "1"} {
			for _, s := range rec.Seeds {
				res, err := runChild(ctx, self, w.name, s, seconds, trace)
				if err != nil {
					return err
				}
				for _, name := range sortedNames(res.Metrics) {
					d := wc.Metrics[name]
					d.Unit = res.Metrics[name].Unit
					d.Values = append(d.Values, res.Metrics[name].Value)
					wc.Metrics[name] = d
				}
			}
		}
		for _, name := range sortedNames(wc.Metrics) {
			d := wc.Metrics[name]
			d.Q1, d.Median, d.Q3 = quartiles(d.Values)
			d.Spread = ratio(d.Q3-d.Q1, d.Median)
			wc.Metrics[name] = d
		}
		rec.Workloads[w.name] = wc
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding the calibration: %w", err)
	}
	fmt.Println(string(out))
	return nil
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runChild runs one benchmark invocation and returns its result line.
func runChild(ctx context.Context, self, name string, seed int64, seconds int, trace string) (*result, error) {
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %s: no result line (%v): %w", name, seed, trace, runErr, err)
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("%s seed %d trace %s failed its checks (%v)", name, seed, trace, runErr)
	}
	return &res, nil
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the exclusive method, as Python's
// statistics.quantiles(xs, n=4) computes them; xs needs two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// describeMachine names the CPU, the kernel and the Go toolchain.
func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}
