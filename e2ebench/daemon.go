package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one profiled process serving on loopback.
type daemon struct {
	cmd        *exec.Cmd
	log        *daemonLog
	exited     chan struct{}
	addr       string        // wire protocol listener
	telemetry  string        // /metrics listener
	ready      time.Duration // spawn until the wire listener accepts
	journalDir string
	http       *http.Client
}

// daemonLog collects the daemon's log output and announces the two
// listener addresses as they are logged.
type daemonLog struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	addr      string
	telemetry string
	readyAt   time.Time
	up        chan struct{} // closed once both addresses are known
}

func (l *daemonLog) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.addr != "" && l.telemetry != "" {
		return len(p), nil
	}
	sc := bufio.NewScanner(bytes.NewReader(l.buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if _, a, ok := strings.Cut(line, "serving wire protocol on "); ok && l.addr == "" {
			l.addr, l.readyAt = a, now
		}
		if _, a, ok := strings.Cut(line, "telemetry on http://"); ok {
			l.telemetry = strings.TrimSuffix(a, "/metrics")
		}
	}
	if l.addr != "" && l.telemetry != "" {
		close(l.up)
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon spawns profiled on loopback ports with the workload's flags
// and waits until both listeners are up.
func startDaemon(bin, tmp string, p Params) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-telemetry", "127.0.0.1:0", "-quiet"}
	d := &daemon{
		log:    &daemonLog{up: make(chan struct{})},
		exited: make(chan struct{}),
		http:   &http.Client{Timeout: 5 * time.Second},
	}
	if p.Journal {
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return nil, err
		}
		d.journalDir = dir
		args = append(args, "-journal-dir", dir)
	}
	args = append(args, p.DaemonFlags...)
	d.cmd = exec.Command(bin, args...)
	if p.Procs > 0 {
		d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", p.Procs))
	}
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		d.removeJournal()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-d.log.up:
	case <-d.exited:
		d.removeJournal()
		return nil, fmt.Errorf("profiled exited before listening: %s", d.log)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("profiled did not listen within 30s: %s", d.log)
	}
	d.log.mu.Lock()
	d.addr, d.telemetry, d.ready = d.log.addr, d.log.telemetry, d.log.readyAt.Sub(start)
	d.log.mu.Unlock()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within 10s, waits for it, and removes its journal directory.
func (d *daemon) stop() error {
	defer d.removeJournal()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("profiled ignored SIGTERM for 10s: %s", d.log)
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("profiled exited with %v: %s", d.cmd.ProcessState, d.log)
	}
	return nil
}

func (d *daemon) removeJournal() {
	if d.journalDir != "" {
		os.RemoveAll(d.journalDir)
	}
}

// scrape reads the daemon's /metrics into name → value; labelled series
// keep their labels in the name.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.http.Get("http://" + d.telemetry + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return out, nil
}

// waitMetric polls /metrics until the named series reaches at least want.
func (d *daemon) waitMetric(name string, want float64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m, err := d.scrape()
		if err == nil && m[name] >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not reach %v within %v (last error %v)", name, want, timeout, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
