package hwprof_test

// Connect's promise: on a block-policy daemon its profiles are bit-identical
// to a local Profile run over the same stream, configuration and seed.

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/server"
)

func apiConfig(seed uint64) hwprof.Config {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	cfg.IntervalLength = 500
	cfg.Seed = seed
	return cfg
}

func apiSource(t *testing.T, seed, n uint64) hwprof.Source {
	t.Helper()
	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	return hwprof.Limit(src, n)
}

// capture collects hardware profiles through an IntervalFunc.
func capture(dst *[]map[hwprof.Tuple]uint64) hwprof.IntervalFunc {
	return func(_ int, _, hw map[hwprof.Tuple]uint64) { *dst = append(*dst, hw) }
}

func sameProfiles(t *testing.T, want, got []map[hwprof.Tuple]uint64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d intervals", label, len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: interval %d diverges", label, i)
		}
	}
}

// startPlainDaemon runs a non-publishing daemon for the remote tests.
func startPlainDaemon(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{})
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
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// runSession streams a fixed workload through an open session and returns
// the complete interval profiles.
func runSession(t *testing.T, sess *hwprof.RemoteSession, seed uint64, intervals int, length uint64) []map[hwprof.Tuple]uint64 {
	t.Helper()
	src := apiSource(t, seed, uint64(intervals)*length)
	var got []map[hwprof.Tuple]uint64
	n, err := sess.Run(src, func(_ int, counts map[hwprof.Tuple]uint64) {
		got = append(got, counts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != intervals {
		t.Fatalf("session delivered %d intervals, want %d", n, intervals)
	}
	return got
}

// TestConnectEquivalentToProfile runs one stream locally through Profile
// and remotely through Connect, at the default batch size and a small one,
// and requires the same profiles from all three.
func TestConnectEquivalentToProfile(t *testing.T) {
	addr := startPlainDaemon(t)
	cfg := apiConfig(34)

	var local []map[hwprof.Tuple]uint64
	n, err := hwprof.Profile(context.Background(), apiSource(t, 34, 3*cfg.IntervalLength),
		hwprof.WithConfig(cfg), hwprof.WithShards(2), hwprof.WithoutOracle(),
		hwprof.OnInterval(capture(&local)))
	if err != nil || n != 3 {
		t.Fatalf("local Profile = %d, %v; want 3 intervals", n, err)
	}
	for _, batch := range []int{0, 128} {
		sess, err := hwprof.Connect(context.Background(), addr,
			hwprof.WithConfig(cfg), hwprof.WithShards(2), hwprof.WithBatchSize(batch))
		if err != nil {
			t.Fatal(err)
		}
		remote := runSession(t, sess, 34, 3, cfg.IntervalLength)
		sameProfiles(t, local, remote, fmt.Sprintf("Connect (batch size %d) vs Profile", batch))
	}
}

// TestConnectContextCancelStopsRedial: the ctx handed to Connect governs
// reconnect dials — cancelling it aborts a session stuck redialing.
func TestConnectContextCancelStopsRedial(t *testing.T) {
	// A listener that accepts nothing useful: grab a port, then close it so
	// every dial fails after the first.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = hwprof.Connect(ctx, ln.Addr().String(),
		hwprof.WithBackoff(time.Hour, 0), hwprof.WithMaxAttempts(1))
	if err == nil {
		t.Fatal("Connect to a dead address must fail")
	}
}
