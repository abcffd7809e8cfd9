package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// schedAttr is the kernel's struct sched_attr, first version.
type schedAttr struct {
	size     uint32
	policy   uint32
	flags    uint64
	nice     int32
	priority uint32
	runtime  uint64 // for SCHED_OTHER: the requested time slice, ns
	deadline uint64
	period   uint64
}

// sysSchedSetattr is the sched_setattr system call number by architecture.
var sysSchedSetattr = map[string]uintptr{"amd64": 314, "arm64": 274}

// openLoopSlice is the scheduler slice the open-loop dispatcher asks for
// where it may not use a real-time policy.
const openLoopSlice = 100_000 // ns

// Scheduling policies.
const (
	schedOther = 0
	schedFIFO  = 1
	schedIdle  = 5
)

// prioritize makes the calling thread, which must be locked to it, wake
// on time: the lowest real-time priority where the process may use one,
// otherwise a short slice from the EEVDF scheduler (Linux 6.12 and later;
// earlier kernels ignore the field). Either way a woken thread preempts a
// CPU-bound one at once instead of after that thread's slice, which on
// two busy cores delays wake-ups by up to about 3 ms. The returned
// function restores the default policy; call it before unlocking.
func prioritize() (restore func(), err error) {
	restore = func() { _ = setSchedAttr(schedAttr{policy: schedOther}) }
	if setSchedAttr(schedAttr{policy: schedFIFO, priority: 1}) == nil {
		return restore, nil
	}
	if err := setSchedAttr(schedAttr{policy: schedOther, runtime: openLoopSlice}); err != nil {
		return func() {}, err
	}
	return restore, nil
}

// setSchedAttr applies attr to the calling thread, which must be locked
// to it.
func setSchedAttr(attr schedAttr) error {
	nr, ok := sysSchedSetattr[runtime.GOARCH]
	if !ok {
		return fmt.Errorf("no sched_setattr number for %s", runtime.GOARCH)
	}
	attr.size = uint32(unsafe.Sizeof(attr))
	if _, _, errno := syscall.Syscall(nr, 0, uintptr(unsafe.Pointer(&attr)), 0); errno != 0 {
		return fmt.Errorf("sched_setattr: %w", errno)
	}
	return nil
}

// startSpinner starts this program again as a spinner: a process that
// keeps every CPU busy at the lowest scheduling priority until its
// standard input closes. On a virtual machine an idle CPU halts, and a
// halted CPU runs the next request slower and wakes it later, by a
// varying amount; a CPU that never idles measures the same from run to
// run. Any other thread preempts a spinner as soon as it wakes up, so
// the spinners only use time no other thread wants.
func startSpinner() (*spinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the harness binary: %w", err)
	}
	cmd := exec.Command(self, "-spinner")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("starting the spinner: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the spinner: %w", err)
	}
	return &spinner{cmd: cmd, stdin: stdin}, nil
}

// spinner is the running spinner process.
type spinner struct {
	cmd   *exec.Cmd
	stdin io.Closer
}

// stop closes the spinner's input and waits for it to exit.
func (s *spinner) stop() {
	_ = s.stdin.Close() // the spinner exits on EOF
	if err := s.cmd.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: spinner:", err)
	}
}

// spin is the spinner process's body: one SCHED_IDLE busy loop per CPU
// until standard input reaches EOF.
func spin() int {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			if err := setSchedAttr(schedAttr{policy: schedIdle}); err != nil {
				fmt.Fprintln(os.Stderr, "bench: spinner:", err)
				return
			}
			for {
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the harness closes the pipe
	close(done)
	wg.Wait()
	return 0
}
