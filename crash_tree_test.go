package hwprof_test

// Fleet aggregation across a daemon crash: two publishing daemons under
// one root aggregator, fed by marked sessions fanning one workload out by
// shard route. One daemon is journaled and killed mid-epoch — in-process
// kill -9 semantics, nothing flushed — then restarted on the same address
// with Recover. The recovered session re-pins its fleet epochs into the
// fresh feed, the client resumes where the stream broke, the root's
// subscriber reconnects, and the root's merged epochs must still be
// bit-identical to a single-engine run over the union stream.

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/journal"
	"hwprof/internal/server"
	"hwprof/internal/shard"
)

// crashableDaemon runs a journaled publishing daemon meant to be killed:
// Serve's exit is delivered on the channel, not asserted in a cleanup.
// Like profiled, it recovers the journal directory before it serves, as
// Server.Recover requires, and fails unless wantRecovered sessions came
// back: a client that reconnected before its recovered session was
// registered would be refused for good.
func crashableDaemon(t *testing.T, cfg server.Config, addr string, wantRecovered int) (*server.Server, string, chan error) {
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

func TestTreeRootBitIdenticalAcrossDaemonCrash(t *testing.T) {
	const (
		daemons = 2 // must divide the config's TotalEntries
		epochs  = 3
		seed    = 31
	)
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	cfg.IntervalLength = 1000
	cfg.Seed = seed

	dcfg := server.Config{
		Publish:       true,
		MachineID:     "m0",
		EpochLength:   1000,
		EpochDeadline: -1,
		JournalDir:    t.TempDir(),
		JournalSync:   journal.SyncBatch,
	}
	srv0, d0, done0 := crashableDaemon(t, dcfg, "127.0.0.1:0", 0)
	d1 := startDaemon(t, "m1")
	root := startAggd(t, "root", []string{d0, d1})

	ctx := context.Background()
	sub, err := hwprof.Subscribe(ctx, root, hwprof.WithIntervalLength(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	sessions := make([]*hwprof.RemoteSession, daemons)
	for i, addr := range []string{d0, d1} {
		s, err := hwprof.Connect(ctx, addr,
			hwprof.WithConfig(cfg),
			hwprof.WithShards(daemons),
			hwprof.WithMarks(),
			hwprof.WithBatchSize(100),
			hwprof.WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		sessions[i] = s
	}

	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	var sent0 uint64 // events routed to the daemon that will crash
	observe := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			tp, ok := src.Next()
			if !ok {
				t.Fatal("workload ended early")
			}
			i := shard.RouteHash(tp) % daemons
			if err := sessions[i].Observe(tp); err != nil {
				t.Fatalf("observe on %d: %v", i, err)
			}
			if i == 0 {
				sent0++
			}
		}
	}
	mark := func() {
		t.Helper()
		for i, s := range sessions {
			if err := s.Mark(); err != nil {
				t.Fatalf("mark on %d: %v", i, err)
			}
		}
	}

	// Epoch 0 completes, then the crash lands mid-epoch 1: 400 events in,
	// boundary not yet placed.
	observe(1000)
	mark()
	observe(400)
	for i, s := range sessions {
		if err := s.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	waitFor2 := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor2("flushed events to reach the doomed daemon", func() bool {
		return srv0.Metrics().EventsTotal.Load() >= sent0
	})

	srv0.Kill()
	if err := <-done0; err != nil {
		t.Fatalf("killed daemon's Serve: %v", err)
	}

	srv2, _, done2 := crashableDaemon(t, dcfg, d0, 1)
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv2.Shutdown(sctx); err != nil {
			t.Errorf("restarted daemon shutdown: %v", err)
		}
		if err := <-done2; err != nil {
			t.Errorf("restarted daemon serve: %v", err)
		}
	})

	// Finish epoch 1 and run epoch 2 through the restarted daemon; the
	// client's next write fails over to a Resume against the recovered
	// tombstone.
	observe(600)
	mark()
	observe(1000)
	mark()
	for i, s := range sessions {
		if _, err := s.Drain(); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if sessions[0].Reconnects() == 0 {
		t.Fatal("the crash never forced a reconnect: test exercised no recovery")
	}
	if got := srv2.Metrics().JournalRecovered.Load(); got != 1 {
		t.Fatalf("journal_recovered_sessions = %d, want 1", got)
	}

	// The reference: the same union stream through one local engine.
	refSrc, err := hwprof.NewWorkload("gcc", hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	var ref []map[hwprof.Tuple]uint64
	n, err := hwprof.Profile(ctx, hwprof.Limit(refSrc, epochs*1000),
		hwprof.WithConfig(cfg),
		hwprof.WithShards(daemons),
		hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, hw map[hwprof.Tuple]uint64) { ref = append(ref, hw) }))
	if err != nil || n != epochs {
		t.Fatalf("local union run: %d intervals, err %v", n, err)
	}

	for e := 0; e < epochs; e++ {
		select {
		case ep, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed at epoch %d: %v", e, sub.Err())
			}
			if ep.Epoch != uint64(e) || ep.Partial || ep.Source != "root" {
				t.Fatalf("root epoch = %+v, want complete epoch %d", ep, e)
			}
			if !reflect.DeepEqual(ep.Counts, ref[e]) {
				t.Fatalf("root epoch %d diverges from the single-engine union run", e)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for root epoch %d", e)
		}
	}
	if sub.Gaps() != 0 {
		t.Fatalf("gaps = %d, want 0", sub.Gaps())
	}
}
