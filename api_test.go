package hwprof_test

// Connect's promise: on a block-policy daemon its profiles are bit-identical
// to a local Profile run over the same stream, configuration and seed.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
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
// reconnect dials — cancelling it ends a session redialing a dead daemon,
// with an error that wraps context.Canceled.
func TestConnectContextCancelStopsRedial(t *testing.T) {
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := hwprof.Connect(ctx, ln.Addr().String(), hwprof.WithConfig(apiConfig(1)),
		hwprof.WithBackoff(time.Millisecond, 20*time.Millisecond), hwprof.WithMaxAttempts(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv.Kill()
	<-served
	cancel()
	select {
	case <-drained(sess.Profiles()):
	case <-time.After(5 * time.Second):
		t.Fatal("the session was still redialing 5 s after its ctx was cancelled")
	}
	if err := sess.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("session error = %v, want one wrapping context.Canceled", err)
	}
}

// TestWithoutReconnectDialsOnce: with WithoutReconnect, a cut connection
// ends a Connect session and a Subscribe subscription with an error, after
// exactly one dial.
func TestWithoutReconnectDialsOnce(t *testing.T) {
	addr := startDaemon(t, "m0")
	var dials atomic.Int32
	conns := make(chan net.Conn, 8)
	dialer := hwprof.WithDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			conns <- conn
		}
		return conn, err
	})
	ctx := context.Background()

	sess, err := hwprof.Connect(ctx, addr, hwprof.WithConfig(apiConfig(1)), hwprof.WithoutReconnect(), dialer)
	if err != nil {
		t.Fatal(err)
	}
	(<-conns).Close()
	select {
	case <-drained(sess.Profiles()):
	case <-time.After(5 * time.Second):
		t.Fatal("Connect: the session outlived its cut connection")
	}
	if sess.Err() == nil || dials.Load() != 1 {
		t.Fatalf("Connect: session error %v after %d dials, want an error after 1", sess.Err(), dials.Load())
	}

	dials.Store(0)
	sub, err := hwprof.Subscribe(ctx, addr, hwprof.WithoutReconnect(), dialer)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	(<-conns).Close()
	select {
	case <-drained(sub.C):
	case <-time.After(5 * time.Second):
		t.Fatal("Subscribe: the subscription outlived its cut connection")
	}
	if sub.Err() == nil || dials.Load() != 1 {
		t.Fatalf("Subscribe: link error %v after %d dials, want an error after 1", sub.Err(), dials.Load())
	}
}

// drained closes once c has closed, discarding what it delivers.
func drained[T any](c <-chan T) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		for range c {
		}
		close(done)
	}()
	return done
}
