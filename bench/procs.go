package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons compiles sortinghatd and sortinghatgw from the checkout
// into dir.
func buildDaemons(ctx context.Context, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator), "./cmd/sortinghatd", "./cmd/sortinghatgw")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building daemons: %w", err)
	}
	return nil
}

// daemon is one serving process started by the harness.
type daemon struct {
	role string // "sortinghatd" or "sortinghatgw"
	url  string
	cmd  *exec.Cmd
	log  *os.File
}

// stack is the set of serving processes of one workload; front is the
// one the load generator talks to.
type stack struct {
	procs   []*daemon
	front   *daemon
	stopped bool
}

// startStack spawns the workload's processes and waits until every
// /healthz answers ok.
func startStack(ctx context.Context, binDir, modelPath, logDir string, fleet bool) (*stack, error) {
	st := &stack{}
	fail := func(err error) (*stack, error) {
		st.stop()
		return nil, err
	}
	if !fleet {
		d, err := spawn(ctx, binDir, logDir, "sortinghatd", "-model", modelPath, "-workers", "2")
		if err != nil {
			return fail(err)
		}
		st.procs = append(st.procs, d)
		st.front = d
	} else {
		var urls []string
		for i := 0; i < 2; i++ {
			d, err := spawn(ctx, binDir, logDir, "sortinghatd", "-model", modelPath, "-workers", "1")
			if err != nil {
				return fail(err)
			}
			st.procs = append(st.procs, d)
			urls = append(urls, d.url)
		}
		// The gateway starts once its replicas answer, as in a rollout;
		// started earlier, its first probe would mark them down for one
		// probe interval.
		for _, d := range st.procs {
			if err := waitHealthy(ctx, d); err != nil {
				return fail(err)
			}
		}
		gw, err := spawn(ctx, binDir, logDir, "sortinghatgw", "-replicas", strings.Join(urls, ","))
		if err != nil {
			return fail(err)
		}
		st.procs = append(st.procs, gw)
		st.front = gw
	}
	if err := waitHealthy(ctx, st.front); err != nil {
		return fail(err)
	}
	return st, nil
}

// spawn starts one daemon on a free loopback port. Its log goes to a
// file in logDir; the process is killed if the harness dies.
func spawn(ctx context.Context, binDir, logDir, role string, args ...string) (*daemon, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	log, err := os.CreateTemp(logDir, role+"-*.log")
	if err != nil {
		return nil, fmt.Errorf("creating daemon log: %w", err)
	}
	cmd := exec.Command(filepath.Join(binDir, role), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = log
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	return &daemon{role: role, url: "http://" + addr, cmd: cmd, log: log}, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	return port, nil
}

// waitHealthy polls /healthz until it reports "status":"ok", the process
// exits, or 30 s pass.
func waitHealthy(ctx context.Context, d *daemon) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), `"status":"ok"`) {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s at %s not healthy after 30s (log %s)", d.role, d.url, d.log.Name())
}

// stop kills every process of the stack and waits for each to exit.
// Calls after the first do nothing.
func (st *stack) stop() {
	if st.stopped {
		return
	}
	st.stopped = true
	for _, d := range st.procs {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait() // the kill is the expected exit status
		_ = d.log.Close()
	}
}

// alive reports the first process of the stack that has exited.
func (st *stack) alive() error {
	for _, d := range st.procs {
		if err := d.cmd.Process.Signal(syscall.Signal(0)); err != nil {
			return fmt.Errorf("%s at %s exited (log %s)", d.role, d.url, d.log.Name())
		}
	}
	return nil
}

// scrape reads a daemon's /metrics.
func scrape(d *daemon) (promSample, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.role, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", d.role, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// promSample maps a Prometheus series (name plus any label set, as
// rendered) to its value.
type promSample map[string]float64

// parseProm parses the Prometheus text exposition format.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// delta is after minus before for one series; a series missing from
// either side reads 0.
func delta(before, after promSample, name string) float64 {
	return after[name] - before[name]
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicksPerSecond = 100

// parseProcStat returns utime+stime from a /proc/<pid>/stat line as a
// duration. The command name may itself hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("malformed stat line: no ')'")
	}
	fields := strings.Fields(line[i+1:])
	// fields[0] is the state (field 3); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("malformed stat line: %d fields after comm", len(fields))
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed stat line: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicksPerSecond, nil
}

// parseVmHWM returns the peak resident set size in bytes from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", line, err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("no VmHWM line")
}

// cpuTime reads the CPU time a process has used so far ("self" for the
// harness).
func cpuTime(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// peakRSS reads a process's VmHWM in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}
