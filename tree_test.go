package hwprof_test

// Fleet aggregation end to end: four publishing daemons under two mid
// aggregators under one root, fed by marked sessions that fan a single
// workload stream out by the engine's own shard route. Because every
// session runs the same configuration with Shards equal to the fleet
// width, daemon i's engine sees exactly the events a local union run
// would send to shard i, so the root's merged epochs must be bit-identical
// to a single-engine run over the union stream — including across a forced
// mid-run hangup and resume on one daemon link.

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/agg"
	"hwprof/internal/faultinject"
	"hwprof/internal/server"
	"hwprof/internal/shard"
	"hwprof/internal/wire"
)

// startDaemon runs a publishing daemon on a loopback port.
func startDaemon(t *testing.T, machine string) string {
	t.Helper()
	srv := server.New(server.Config{
		Publish:       true,
		MachineID:     machine,
		EpochLength:   1000,
		EpochDeadline: -1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("daemon %s shutdown: %v", machine, err)
		}
		if err := <-done; err != nil {
			t.Errorf("daemon %s serve: %v", machine, err)
		}
	})
	return ln.Addr().String()
}

// startAggd runs an aggregator over children on a loopback port.
func startAggd(t *testing.T, source string, children []string) string {
	t.Helper()
	a, err := agg.New(agg.Config{
		Source:      source,
		Children:    children,
		EpochLength: 1000,
		Deadline:    -1,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	done := make(chan error, 1)
	go func() { done <- a.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := a.Shutdown(ctx); err != nil {
			t.Errorf("aggd %s shutdown: %v", source, err)
		}
		if err := <-done; err != nil {
			t.Errorf("aggd %s serve: %v", source, err)
		}
	})
	return ln.Addr().String()
}

func TestTreeRootBitIdenticalToUnionRun(t *testing.T) {
	const (
		daemons = 4 // must divide the config's TotalEntries
		epochs  = 3
		seed    = 29
	)
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	cfg.IntervalLength = 1000
	cfg.Seed = seed

	// The tree: four machines, two mids, one root.
	d0 := startDaemon(t, "m0")
	d1 := startDaemon(t, "m1")
	d2 := startDaemon(t, "m2")
	d3 := startDaemon(t, "m3")
	mid1 := startAggd(t, "mid1", []string{d0, d1})
	mid2 := startAggd(t, "mid2", []string{d2, d3})
	root := startAggd(t, "root", []string{mid1, mid2})

	ctx := context.Background()
	sub, err := hwprof.Subscribe(ctx, root, hwprof.WithIntervalLength(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// One marked session per daemon, all running the same engine shape. The
	// first link hangs up mid-run: the resume must keep the fleet profile
	// exact, not merely close.
	hungDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		d := net.Dialer{Timeout: timeout}
		conn, err := d.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &faultinject.HangupConn{Conn: conn, After: 3_000}, nil
	}
	dials := 0
	sessions := make([]*hwprof.RemoteSession, daemons)
	for i, addr := range []string{d0, d1, d2, d3} {
		opts := []hwprof.Option{
			hwprof.WithConfig(cfg),
			hwprof.WithShards(daemons),
			hwprof.WithMarks(),
			hwprof.WithBatchSize(100),
			hwprof.WithBackoff(5*time.Millisecond, 0),
		}
		if i == 0 {
			opts = append(opts, hwprof.WithDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
				dials++
				if dials == 1 {
					return hungDial(addr, timeout)
				}
				d := net.Dialer{Timeout: timeout}
				return d.Dial("tcp", addr)
			}))
		}
		s, err := hwprof.Connect(ctx, addr, opts...)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		sessions[i] = s
	}

	// Stream the union workload, each event to the daemon owning its shard
	// route, with a mark on every session at each epoch boundary.
	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		for n := 0; n < 1000; n++ {
			tp, ok := src.Next()
			if !ok {
				t.Fatal("workload ended early")
			}
			i := shard.RouteHash(tp) % daemons
			if err := sessions[i].Observe(tp); err != nil {
				t.Fatalf("observe on %d: %v", i, err)
			}
		}
		for i, s := range sessions {
			if err := s.Mark(); err != nil {
				t.Fatalf("mark on %d: %v", i, err)
			}
		}
	}
	for i, s := range sessions {
		if _, err := s.Drain(); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if sessions[0].Reconnects() == 0 {
		t.Fatal("the forced hangup never fired: test exercised no resume")
	}

	// The reference: the same union stream through one local engine of the
	// same shape.
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
