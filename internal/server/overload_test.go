package server_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hwprof/internal/client"
	"hwprof/internal/event"
	"hwprof/internal/server"
	"hwprof/internal/wire"
)

// TestAdmissionRefusedByCost exhausts the engine-cost budget and checks the
// next session is refused with an overload error naming the admission
// decision — and that closing a session returns its cost so a later dial
// succeeds.
func TestAdmissionRefusedByCost(t *testing.T) {
	// testConfig sessions hit the minimum cost floor (1/16): a budget of
	// 0.13 admits exactly two.
	srv, addr := startServer(t, server.Config{CostBudget: 0.13})
	first, err := client.Dial(addr, testConfig(1), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	second, err := client.Dial(addr, testConfig(2), client.Options{})
	if err != nil {
		t.Fatal(err)
	}

	_, err = client.Dial(addr, testConfig(3), client.Options{})
	if err == nil {
		t.Fatal("third session admitted past the cost budget")
	}
	var e wire.ErrorMsg
	if !errors.As(err, &e) || e.Code != wire.CodeOverload {
		t.Fatalf("got %v, want a CodeOverload refusal", err)
	}
	if !strings.Contains(e.Msg, "admission refused") {
		t.Fatalf("refusal %q does not name the admission decision", e.Msg)
	}

	m := srv.Metrics()
	if got := m.AdmissionRefusedCost.Load(); got != 1 {
		t.Errorf("admission_refused_cost = %d, want 1", got)
	}
	if got := m.AdmissionCostUsed.Load(); got != 125 { // 2 × 62.5 milli
		t.Errorf("admission_cost_used_milli = %d, want 125", got)
	}

	// Closing a session releases its cost; the daemon admits again.
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "budget release", func() bool { return m.AdmissionCostUsed.Load() <= 62 })
	third, err := client.Dial(addr, testConfig(4), client.Options{})
	if err != nil {
		t.Fatalf("dial after release: %v", err)
	}
	third.Close()

	// The decisions are visible in the Prometheus exposition.
	var sb strings.Builder
	if err := m.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hwprof_admission_refused_cost_total 1",
		"hwprof_admission_cost_budget_milli 130",
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("telemetry missing %q", want)
		}
	}
}

// TestAdmissionHeldByTombstone checks a parked session keeps holding its
// admission cost — its engine is still resident — until the grace period
// discards it.
func TestAdmissionHeldByTombstone(t *testing.T) {
	srv, addr := startServer(t, server.Config{CostBudget: 0.07, ResumeGrace: 80 * time.Millisecond})
	conn, wc := rawSession(t, addr, testConfig(1))
	batch := []event.Tuple{{A: 1, B: 1}, {A: 2, B: 1}}
	if err := wc.WriteFrame(wire.MsgBatch, wire.AppendBatch(nil, batch)); err != nil {
		t.Fatal(err)
	}
	conn.Close() // park, not close: the engine stays resident

	m := srv.Metrics()
	waitFor(t, "session to park", func() bool { return m.SessionsParked.Load() == 1 })
	_, err := client.Dial(addr, testConfig(2), client.Options{})
	var e wire.ErrorMsg
	if !errors.As(err, &e) || e.Code != wire.CodeOverload {
		t.Fatalf("dial against a parked session's budget: got %v, want CodeOverload", err)
	}

	waitFor(t, "tombstone to expire", func() bool { return m.TombstonesExpired.Load() == 1 })
	sess, err := client.Dial(addr, testConfig(3), client.Options{})
	if err != nil {
		t.Fatalf("dial after tombstone expiry: %v", err)
	}
	sess.Close()
}

// pipeListener is an in-memory net.Listener over net.Pipe: connections have
// no buffering at all, so a peer that stops reading blocks the writer on
// the very next frame — the tightest possible version of a full TCP write
// buffer.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server side of a fresh pipe to Accept and returns the
// client side.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	c, s := net.Pipe()
	select {
	case l.ch <- s:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop not running")
	}
	return c
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// wedgeWorker serves a daemon built from cfg over an unbuffered pipe and
// wedges its one session's worker on a profile write to a client that has
// stopped reading — the write can never complete. It returns the daemon
// and the channel Serve's result arrives on.
func wedgeWorker(t *testing.T, cfg server.Config) (*server.Server, chan error) {
	t.Helper()
	srv := server.New(cfg)
	ln := newPipeListener()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn := ln.dial(t)
	t.Cleanup(func() { conn.Close() })
	wc := wire.NewConn(conn)
	if err := wc.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	hello := testConfig(1)
	if err := wc.WriteFrame(wire.MsgHello, wire.AppendHello(nil, wire.Hello{Config: hello, Shards: 1})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.ReadFrame(); err != nil || typ != wire.MsgHelloAck {
		t.Fatalf("hello-ack: type %d, err %v", typ, err)
	}

	// From here the client never reads again. Stream events past the first
	// interval boundary; the worker blocks writing that profile.
	go func() {
		batch := make([]event.Tuple, 100)
		var n uint64
		for {
			for i := range batch {
				batch[i] = event.Tuple{A: n % 50, B: 1}
				n++
			}
			if err := wc.WriteFrame(wire.MsgBatch, wire.AppendBatch(nil, batch)); err != nil {
				return // shutdown closed the conn under us: done
			}
		}
	}()
	waitFor(t, "worker to reach the first interval boundary", func() bool {
		return srv.Metrics().EventsTotal.Load() >= hello.IntervalLength
	})
	return srv, serveDone
}

// TestShutdownBoundedByWriteDeadline wedges a session's worker on a profile
// write to a client that has stopped reading — over an unbuffered pipe, so
// the write can never complete — and checks Shutdown is bounded by the
// write deadline instead of hanging until the context force-closes.
func TestShutdownBoundedByWriteDeadline(t *testing.T) {
	srv, serveDone := wedgeWorker(t, server.Config{
		WriteTimeout: 300 * time.Millisecond,
		ResumeGrace:  -1, // resume off: the write failure must tear down, not park
	})

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown was not bounded by the write deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v despite a 300ms write deadline", elapsed)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestShutdownForceClosesAtDeadline wedges a worker with no write deadline
// at all, so only Shutdown's context can end it: when the context expires,
// the remaining connections must be force-closed and Shutdown must return
// the context's error promptly, with Serve still returning nil.
func TestShutdownForceClosesAtDeadline(t *testing.T) {
	srv, serveDone := wedgeWorker(t, server.Config{WriteTimeout: -1, ResumeGrace: -1})

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown of a wedged worker = %v, want %v", err, context.DeadlineExceeded)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v despite a 200ms context", elapsed)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
