package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/client"
	"hwprof/internal/event"
	"hwprof/internal/journal"
	"hwprof/internal/server"
	"hwprof/internal/wire"
)

// gatedSource delivers the wrapped stream up to a gate point, then blocks
// until the gate opens — so a crash test can hold a client mid-stream at a
// chosen event offset while the daemon under it is killed and restarted.
type gatedSource struct {
	inner hwprof.Source
	after uint64
	gate  chan struct{}
	n     uint64
}

func (g *gatedSource) Next() (hwprof.Tuple, bool) {
	if g.n == g.after {
		<-g.gate
	}
	g.n++
	return g.inner.Next()
}

func (g *gatedSource) Err() error { return g.inner.Err() }

// crashServer runs a daemon meant to be Kill()ed: Serve's exit error is
// delivered on the returned channel instead of asserted in a cleanup.
// Like profiled, it recovers the journal directory before it serves, as
// Server.Recover requires, and fails unless wantRecovered sessions came
// back: a client that reconnected before its recovered session was
// registered would be refused for good.
func crashServer(t *testing.T, cfg server.Config, addr string, wantRecovered int) (*server.Server, string, chan error) {
	t.Helper()
	srv := server.New(cfg)
	recovered, err := srv.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if recovered != wantRecovered {
		t.Fatalf("recovered %d sessions, want %d", recovered, wantRecovered)
	}
	var ln net.Listener
	// The restarted daemon rebinds the crashed one's exact address so the
	// client's reconnect loop finds it; retry briefly in case the old
	// socket lingers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), done
}

// runKillCycle streams a workload through a journaled daemon in frames of
// batchSize events, kills the daemon in-process at roughly killAt events,
// restarts it on the same address with Recover, and requires the client's
// transparently resumed run to deliver profiles bit-identical to an
// uninterrupted local run.
func runKillCycle(t *testing.T, sync journal.SyncPolicy, seed, killAt, batchSize uint64) {
	t.Helper()
	const intervals = 5
	cfg := server.Config{
		JournalDir:  t.TempDir(),
		JournalSync: sync,
		ResumeGrace: 20 * time.Second,
	}
	srv1, addr, done1 := crashServer(t, cfg, "127.0.0.1:0", 0)

	ccfg := testConfig(seed)
	total := ccfg.IntervalLength * intervals
	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedSource{inner: hwprof.Limit(src, total), after: killAt, gate: make(chan struct{})}

	type result struct {
		got []map[hwprof.Tuple]uint64
		n   int
		err error
	}
	resCh := make(chan result, 1)
	sess, err := client.Dial(addr, ccfg, client.Options{
		Shards:    2,
		BatchSize: int(batchSize),
		Reconnect: true,
		Link:      wire.Link{BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		var r result
		r.n, r.err = sess.Run(gated, func(_ int, counts map[hwprof.Tuple]uint64) {
			r.got = append(r.got, counts)
		})
		resCh <- r
	}()

	// The client holds at the gate with at most one partial batch unsent;
	// wait for everything it did send to reach the engine, then crash.
	reach := killAt - killAt%batchSize
	waitFor(t, "events to reach the first daemon", func() bool {
		return srv1.Metrics().EventsTotal.Load() >= reach
	})
	srv1.Kill()
	if err := <-done1; err != nil {
		t.Fatalf("killed daemon's Serve: %v", err)
	}
	if got := srv1.Metrics().JournalBytes.Load(); got == 0 {
		t.Error("journal_bytes = 0 on the crashed daemon")
	}

	srv2, _, done2 := crashServer(t, cfg, addr, 1)
	close(gated.gate)

	r := <-resCh
	if r.err != nil {
		t.Fatalf("resumed run: %v", r.err)
	}
	if r.n != intervals {
		t.Fatalf("resumed run delivered %d intervals, want %d", r.n, intervals)
	}
	local := localProfiles(t, ccfg, 2, "gcc", seed, intervals)
	assertSameProfiles(t, local, r.got, fmt.Sprintf("sync=%v killAt=%d", sync, killAt))

	m2 := srv2.Metrics()
	if got := m2.JournalRecovered.Load(); got != 1 {
		t.Errorf("journal_recovered_sessions = %d, want 1", got)
	}
	if got := m2.JournalRecoverFailures.Load(); got != 0 {
		t.Errorf("journal_recover_failures = %d, want 0", got)
	}
	if got := m2.ResumesTotal.Load(); got != 1 {
		t.Errorf("resumes_total = %d, want 1", got)
	}

	// The clean end must have retired the journal: a third daemon finds
	// nothing to recover.
	srv2.Kill()
	if err := <-done2; err != nil {
		t.Fatalf("second daemon's Serve: %v", err)
	}
	srv3 := server.New(cfg)
	if n, err := srv3.Recover(); err != nil || n != 0 {
		t.Fatalf("post-goodbye recover = (%d, %v), want (0, nil)", n, err)
	}
}

// TestKillRecoverResume is the crash-durability contract, extended from
// the connection-kill suite to a full daemon kill: at N randomized
// offsets the daemon dies mid-stream with kill -9 semantics (buffered
// journal bytes lost, no goodbyes), restarts, replays the journal, and
// the reconnecting client's final profiles are bit-identical to an
// uninterrupted run — under both durable sync policies. With frames of
// 128 events, which do not divide the 1000-event interval, an interval-sync
// crash past the first boundary recovers inside a frame the client logged,
// so the client resends only that frame's tail.
func TestKillRecoverResume(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for _, sync := range []journal.SyncPolicy{journal.SyncBatch, journal.SyncInterval} {
		for i := 0; i < 3; i++ {
			killAt := 500 + uint64(rng.Int63n(4000))
			t.Run(fmt.Sprintf("sync=%v/killAt=%d", sync, killAt), func(t *testing.T) {
				runKillCycle(t, sync, 1000+killAt, killAt, 100)
			})
		}
	}
	for i := 0; i < 3; i++ {
		killAt := 1200 + uint64(rng.Int63n(3000))
		t.Run(fmt.Sprintf("sync=%v/batch=128/killAt=%d", journal.SyncInterval, killAt), func(t *testing.T) {
			runKillCycle(t, journal.SyncInterval, 1000+killAt, killAt, 128)
		})
	}
}

// TestRecoverAdmissionRefused restarts a crashed daemon with a budget too
// small for the journaled session: recovery must refuse it like any other
// admission, count the failure, and retire the journal so the refusal is
// not retried forever.
func TestRecoverAdmissionRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{JournalDir: dir, JournalSync: journal.SyncBatch}
	srv1, addr, done1 := crashServer(t, cfg, "127.0.0.1:0", 0)

	_, wc := rawSession(t, addr, testConfig(7))
	batch := make([]event.Tuple, 200)
	for i := range batch {
		batch[i] = event.Tuple{A: uint64(i), B: 1}
	}
	if err := wc.WriteFrame(wire.MsgBatch, wire.AppendBatch(nil, batch)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "events to reach the engine", func() bool {
		return srv1.Metrics().EventsTotal.Load() >= 200
	})
	srv1.Kill()
	<-done1

	tight := cfg
	tight.CostBudget = 1e-6
	srv2 := server.New(tight)
	n, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 0 {
		t.Fatalf("recovered %d sessions past a %.0g budget, want 0", n, tight.CostBudget)
	}
	m := srv2.Metrics()
	if got := m.JournalRecoverFailures.Load(); got != 1 {
		t.Errorf("journal_recover_failures = %d, want 1", got)
	}
	if ids, err := journal.ScanDir(dir); err != nil || len(ids) != 0 {
		t.Errorf("refused journal not retired: ids=%v err=%v", ids, err)
	}
}

// TestUnackedSessionLeavesNoJournal opens sessions from eight goroutines
// while a graceful shutdown begins. A Hello refused by the drain, or one
// whose ack was never written, reached no client, so its session must
// leave no journal: a restarted daemon would otherwise recover a session
// nobody will resume, holding a session slot and admission cost for the
// whole resume grace.
func TestUnackedSessionLeavesNoJournal(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		cfg := server.Config{JournalDir: t.TempDir(), JournalSync: journal.SyncBatch}
		srv, addr, served := crashServer(t, cfg, "127.0.0.1:0", 0)

		var mu sync.Mutex
		acked := map[uint64]bool{}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					sess, err := client.Dial(addr, testConfig(uint64(trial)), client.Options{})
					if err != nil {
						continue
					}
					mu.Lock()
					acked[sess.ID()] = true
					mu.Unlock()
					sess.Close()
				}
			}()
		}
		// Shut down once the daemon is serving, while Hellos are in flight.
		waitFor(t, "a first session", func() bool { return srv.Metrics().SessionsTotal.Load() > 0 })
		time.Sleep(time.Duration(2+trial%5) * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("trial %d: shutdown: %v", trial, err)
		}
		if err := <-served; err != nil {
			t.Fatalf("trial %d: serve: %v", trial, err)
		}

		ids, err := journal.ScanDir(cfg.JournalDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if !acked[id] {
				t.Errorf("trial %d: session %d left a journal, but no client was acked for it", trial, id)
			}
		}
		next := server.New(cfg)
		n, err := next.Recover()
		if err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		next.Shutdown(context.Background()) // release whatever was recovered
		if n != 0 {
			t.Fatalf("trial %d: recovered %d session(s) after a graceful shutdown, want 0", trial, n)
		}
	}
}
