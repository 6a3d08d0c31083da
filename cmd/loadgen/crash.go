package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"hwprof"
)

// daemonProc is a profiled process loadgen owns in crash mode: spawned,
// SIGKILLed mid-stream, and respawned on the same address with the same
// journal so the restart replays it.
type daemonProc struct {
	bin, listen, telemetry  string
	journalDir, journalSync string

	cmd    *exec.Cmd
	exited chan error
}

func (d *daemonProc) args() []string {
	return []string{
		"-listen", d.listen,
		"-telemetry", d.telemetry,
		"-journal-dir", d.journalDir,
		"-journal-sync", d.journalSync,
		"-resume-grace", "1m",
	}
}

// start spawns the daemon and waits until its wire port accepts, retrying
// the spawn in case a restart races the dying process's socket release.
func (d *daemonProc) start() error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		cmd := exec.Command(d.bin, d.args()...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning %s: %w", d.bin, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		deadline := time.Now().Add(10 * time.Second)
		for {
			select {
			case err := <-exited:
				lastErr = fmt.Errorf("daemon exited during startup: %v", err)
			default:
				if c, err := net.DialTimeout("tcp", d.listen, time.Second); err == nil {
					c.Close()
					d.cmd, d.exited = cmd, exited
					return nil
				}
				if time.Now().Before(deadline) {
					time.Sleep(20 * time.Millisecond)
					continue
				}
				cmd.Process.Kill()
				<-exited
				lastErr = fmt.Errorf("daemon never accepted on %s", d.listen)
			}
			break
		}
	}
	return lastErr
}

// kill delivers kill -9: no drain, no goodbyes, buffered journal bytes lost.
func (d *daemonProc) kill() error {
	if err := d.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("killing daemon: %w", err)
	}
	<-d.exited
	return nil
}

// stop shuts the daemon down gracefully, escalating to SIGKILL on a stall.
func (d *daemonProc) stop() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.cmd = nil
}

// killGate holds every session at the same stream offset while the daemon
// under them is killed and restarted: held counts down as sessions arrive
// (or end early), and restarted releases them.
type killGate struct {
	at        uint64
	held      sync.WaitGroup
	restarted chan struct{}
}

// killGateSource delivers the wrapped stream up to the kill offset, then
// announces its arrival and blocks until the daemon restart completes — so
// every session holds mid-stream, with at most one partial batch unsent,
// while the daemon under it is killed and recovered.
type killGateSource struct {
	inner  hwprof.Source
	at     uint64
	arrive func()
	resume <-chan struct{}
	n      uint64
}

func (k *killGateSource) Next() (hwprof.Tuple, bool) {
	if k.n == k.at {
		k.arrive()
		<-k.resume
	}
	k.n++
	return k.inner.Next()
}

func (k *killGateSource) Err() error { return k.inner.Err() }

// crash drives sessions against a daemon loadgen itself spawned, kills the
// daemon with SIGKILL once every session has streamed killAt events, and
// restarts it on the same address. Each session holds at the kill point so
// the crash lands at a deterministic stream offset, then resumes against
// the restarted daemon's recovered tombstones; every session must
// reconnect and its delivered profiles must verify bit-identical against
// the local mirror — with no resize in the trail, an uninterrupted local
// run of the same stream.
func (g *generator) crash(d *daemonProc, killAt uint64, metricsURL string) error {
	fmt.Printf("loadgen: crash mode: %d session(s) × %d events, SIGKILL at event %d, journal %s (sync %s)\n",
		g.sessions, g.scn.TotalEvents(), killAt, d.journalDir, d.journalSync)
	if err := d.start(); err != nil {
		return err
	}
	defer d.stop()

	g.verify = true
	g.kill = &killGate{at: killAt, restarted: make(chan struct{})}
	g.kill.held.Add(g.sessions)
	done := make(chan []outcome, 1)
	go func() { done <- g.runSessions() }()

	g.kill.held.Wait()
	// Give the daemon a beat to drain queued batches into the journal, so
	// the restart replays real stream content, not just the Hello record.
	time.Sleep(500 * time.Millisecond)
	fmt.Printf("loadgen: crash: all sessions held at event %d, killing the daemon\n", killAt)
	if err := d.kill(); err != nil {
		close(g.kill.restarted)
		return err
	}
	if err := d.start(); err != nil {
		close(g.kill.restarted)
		return fmt.Errorf("restarting daemon: %w", err)
	}
	fmt.Println("loadgen: crash: daemon restarted, releasing sessions")
	close(g.kill.restarted)

	failed := 0
	var reconnects uint64
	for _, out := range <-done {
		switch {
		case out.err != nil:
			failed++
			fmt.Printf("session %d: FAILED: %v\n", out.idx, out.err)
		case out.skipped != "":
			failed++
			fmt.Printf("session %d: FAILED: verify skipped: %s\n", out.idx, out.skipped)
		case out.reconnects == 0:
			failed++
			fmt.Printf("session %d: FAILED: no reconnect observed — the kill exercised no recovery\n", out.idx)
		default:
			reconnects += out.reconnects
			fmt.Printf("session %d: %d interval(s) bit-identical across the kill, %d reconnect(s)\n",
				out.idx, out.verified, out.reconnects)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d session(s) failed", failed, g.sessions)
	}

	if metricsURL != "" {
		vals, err := scrapeMetrics(metricsURL)
		if err != nil {
			return fmt.Errorf("scraping %s: %w", metricsURL, err)
		}
		if got := vals["hwprof_journal_recovered_sessions_total"]; got != float64(g.sessions) {
			return fmt.Errorf("hwprof_journal_recovered_sessions_total = %g, want %d", got, g.sessions)
		}
		if got := vals["hwprof_journal_recover_failures_total"]; got != 0 {
			return fmt.Errorf("hwprof_journal_recover_failures_total = %g, want 0", got)
		}
		if got := vals["hwprof_journal_torn_truncations_total"]; got > 0 {
			fmt.Printf("loadgen: crash: %g torn journal tail(s) truncated on recovery\n", got)
		}
		fmt.Printf("loadgen: crash: recovery counters clean (%d recovered, 0 failures)\n", g.sessions)
	}
	fmt.Printf("loadgen: crash: PASS — %d session(s) resumed bit-identically across a daemon SIGKILL (%d reconnect(s))\n",
		g.sessions, reconnects)
	return nil
}
