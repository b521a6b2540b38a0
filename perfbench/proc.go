package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one polyserve child process. Its stderr goes to a log file;
// the listening address is parsed from the "listening on" line.
type proc struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	done    chan struct{} // closed once Wait has returned
	waitErr error
}

// procs tracks every live child so that any exit path can stop them.
var procs struct {
	sync.Mutex
	live map[*proc]struct{}
}

// startPolyserve runs bin with args, waits until it listens (or exits,
// or budget passes) and returns it.
func startPolyserve(bin, logPath string, budget time.Duration, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// A child outlives nothing: if the benchmark dies, so does it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = make(map[*proc]struct{})
	}
	procs.live[p] = struct{}{}
	procs.Unlock()

	addrc := make(chan string, 1) // one send: the first "listening on" line
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addrc <- strings.Fields(rest)[0]
				sent = true
			}
		}
		p.waitErr = cmd.Wait()
		procs.Lock()
		delete(procs.live, p)
		procs.Unlock()
		close(p.done)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s %s exited before listening: %v (see %s)", bin, strings.Join(args, " "), p.waitErr, logPath)
	case <-time.After(budget):
		p.kill()
		return nil, fmt.Errorf("%s did not listen within %v (see %s)", bin, budget, logPath)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// stop asks for a graceful shutdown, escalating to SIGKILL after budget.
func (p *proc) stop(budget time.Duration) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(budget):
		p.kill()
	}
}

// alive reports whether the process has not exited.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// killAll stops every child still running; used on every exit path.
func killAll() {
	procs.Lock()
	live := make([]*proc, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// statusMB reads a memory field of /proc/<pid>/status (pid 0 = this
// process), such as "VmHWM" (peak resident set) or "VmRSS", in MiB.
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("%s not found in %s", field, path)
}

// sampleRSS samples a process's resident set (pid 0 = this process)
// every 50 ms. The returned stop function ends the sampling and returns
// the median sample in MiB with the sample count. The median over a
// window holds still where the peak does not: a Go heap's peak depends
// on where its collection cycles happened to fall.
func sampleRSS(pid int) (stop func() (float64, int)) {
	done := make(chan struct{})
	out := make(chan []float64, 1) // one send, when done closes
	go func() {
		var samples []float64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, err := statusMB(pid, "VmRSS"); err == nil {
				samples = append(samples, mb)
			}
			select {
			case <-done:
				out <- samples
				return
			case <-t.C:
			}
		}
	}()
	return func() (float64, int) {
		close(done)
		s := <-out
		return median(s), len(s)
	}
}

// procCPUSeconds returns a process's user+system CPU time (pid 0 =
// this process), from /proc/<pid>/stat in clock ticks of 1/100 s.
func procCPUSeconds(pid int) (float64, error) {
	path := "/proc/self/stat"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("%s: malformed", path)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: malformed", path)
	}
	return (utime + stime) / 100, nil
}

// dirBytes sums the sizes of the regular files under dir. Files a
// running checkpoint removes mid-walk are skipped.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			var info fs.FileInfo
			if info, err = d.Info(); err == nil {
				total += info.Size()
			}
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	})
	return total, err
}
