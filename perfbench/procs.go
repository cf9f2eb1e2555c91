package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one serving process started by the benchmark.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{}
}

// children tracks every process the benchmark started, so each exit path
// can stop them all.
var children struct {
	mu   sync.Mutex
	list []*proc
}

// freeAddr picks a free loopback port. Both binaries log the -addr flag
// rather than the bound port, so the port is chosen here and passed in.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// startProc launches bin with args plus -addr on a free port; its log
// (request lines included) goes to logPath.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = f
	cmd.Stderr = f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, base: "http://" + addr, log: f, done: make(chan struct{})}
	children.mu.Lock()
	defer children.mu.Unlock()
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant once stopped
		close(p.done)
	}()
	children.list = append(children.list, p)
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down gracefully (SIGTERM: drain, sync and
// close its store) and kills it if it has not exited within grace. It
// returns once the process has ended.
func (p *proc) stop(grace time.Duration) {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(grace):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
	children.mu.Lock()
	defer children.mu.Unlock()
	for i, c := range children.list {
		if c == p {
			children.list = append(children.list[:i], children.list[i+1:]...)
			break
		}
	}
}

// stopAll kills every process still running and waits for each to end.
func stopAll() {
	children.mu.Lock()
	list := append([]*proc(nil), children.list...)
	children.mu.Unlock()
	for _, p := range list {
		if !p.exited() {
			_ = p.cmd.Process.Kill()
		}
		<-p.done
		p.log.Close()
	}
	children.mu.Lock()
	children.list = nil
	children.mu.Unlock()
}

// waitReady polls /readyz until it reports "ok", failing when the process
// exits or the deadline passes.
func waitReady(ctx context.Context, hc *http.Client, p *proc) error {
	for {
		if p.exited() {
			return fmt.Errorf("%s exited before becoming ready (see %s)", p.name, p.log.Name())
		}
		status, body, err := send(ctx, hc, p.base, "GET", "/readyz", nil, true)
		if err == nil && status == http.StatusOK {
			var r struct {
				Status string `json:"status"`
			}
			if json.Unmarshal(body, &r) == nil && r.Status == "ok" {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuSeconds returns the user+system CPU the process has used so far.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// vars is one /debug/vars reading: the program's metric registry and the
// Go runtime's memstats.
type vars struct {
	Metrics  map[string]json.RawMessage `json:"comparesets"`
	MemStats struct {
		NumGC        float64 `json:"NumGC"`
		PauseTotalNs float64 `json:"PauseTotalNs"`
	} `json:"memstats"`
}

func readVars(ctx context.Context, hc *http.Client, base string) (*vars, error) {
	status, body, err := send(ctx, hc, base, "GET", "/debug/vars", nil, true)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s/debug/vars: status %d", base, status)
	}
	var v vars
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("decoding %s/debug/vars: %w", base, err)
	}
	return &v, nil
}

// stealSeconds returns the machine's cumulative steal time: CPU time the
// hypervisor gave to other guests while this one was runnable.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line := strings.SplitN(string(raw), "\n", 2)[0]
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / clockTicks
}
