package agg

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// feedServer serves one feed's epochs over the wire Subscribe surface, the
// way profiled and aggd do, and can cut its live connections on demand.
type feedServer struct {
	t    *testing.T
	feed *Feed
	ln   net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func serveFeed(t *testing.T, feed *Feed) *feedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &feedServer{t: t, feed: feed, ln: ln, conns: make(map[net.Conn]struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			go s.handle(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.dropConns()
	})
	return s
}

func (s *feedServer) addr() string { return s.ln.Addr().String() }

func (s *feedServer) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	wc := wire.NewConn(conn)
	if err := wc.ServerHandshake(); err != nil {
		return
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil || typ != wire.MsgSubscribe {
		return
	}
	ServeSubscription(conn, wc, s.feed, payload, nil)
}

// dropConns cuts every live subscriber connection, simulating an outage.
func (s *feedServer) dropConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
}

// recorder accumulates delivered epochs and declared gaps.
type recorder struct {
	mu     sync.Mutex
	epochs []Epoch
	gaps   [][2]uint64
}

func (r *recorder) HandleEpoch(ep Epoch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs = append(r.epochs, ep)
}

func (r *recorder) HandleGap(from, to uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaps = append(r.gaps, [2]uint64{from, to})
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.epochs)
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubscriberDeliversInOrder(t *testing.T) {
	feed := NewFeed(FeedConfig{Source: "m1", EpochLength: 100, Deadline: -1})
	defer feed.Close()
	feed.Join("s")
	srv := serveFeed(t, feed)

	rec := &recorder{}
	sub := NewSubscriber(SubscriberConfig{Addr: srv.addr(), EpochLength: 100}, rec)
	done := make(chan error, 1)
	go func() { done <- sub.Run() }()
	defer sub.Close()

	for e := uint64(0); e < 5; e++ {
		feed.Report("s", e, counts(1, 1, e+1), nil)
	}
	waitFor(t, func() bool { return rec.len() == 5 }, "5 epochs")
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, ep := range rec.epochs {
		if ep.Epoch != uint64(i) || ep.Source != "m1" || ep.Counts[event.Tuple{A: 1, B: 1}] != uint64(i)+1 {
			t.Fatalf("epoch[%d] = %+v", i, ep)
		}
	}
	if len(rec.gaps) != 0 || sub.Reconnects() != 0 {
		t.Fatalf("gaps %v reconnects %d, want none", rec.gaps, sub.Reconnects())
	}
}

func TestSubscriberReconnectsAndResumes(t *testing.T) {
	feed := NewFeed(FeedConfig{Source: "m1", EpochLength: 100, Deadline: -1})
	defer feed.Close()
	feed.Join("s")
	srv := serveFeed(t, feed)

	rec := &recorder{}
	sub := NewSubscriber(SubscriberConfig{
		Addr:        srv.addr(),
		EpochLength: 100,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond, MaxAttempts: -1},
	}, rec)
	go sub.Run()
	defer sub.Close()

	feed.Report("s", 0, counts(1, 1, 1), nil)
	feed.Report("s", 1, counts(1, 1, 2), nil)
	waitFor(t, func() bool { return rec.len() == 2 }, "2 epochs before the outage")

	srv.dropConns()
	feed.Report("s", 2, counts(1, 1, 3), nil)
	feed.Report("s", 3, counts(1, 1, 4), nil)
	waitFor(t, func() bool { return rec.len() == 4 }, "epochs after reconnect")

	if sub.Reconnects() == 0 {
		t.Fatal("expected at least one reconnect")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// Delivery must resume exactly where it stopped: strictly in order, no
	// duplicates, no gap declarations — the retention ring covered the
	// outage.
	for i, ep := range rec.epochs {
		if ep.Epoch != uint64(i) {
			t.Fatalf("epoch[%d].Epoch = %d after reconnect", i, ep.Epoch)
		}
	}
	if len(rec.gaps) != 0 {
		t.Fatalf("gaps %v, want none inside the retention ring", rec.gaps)
	}
}

func TestSubscriberDeclaresGapBeyondRetention(t *testing.T) {
	feed := NewFeed(FeedConfig{Source: "m1", EpochLength: 100, Deadline: -1, Retain: 2})
	defer feed.Close()
	feed.Join("s")
	// Close epochs 0..5 before anyone subscribes; only 4..5 are retained.
	for e := uint64(0); e < 6; e++ {
		feed.Report("s", e, counts(1, 1, e+1), nil)
	}
	srv := serveFeed(t, feed)

	rec := &recorder{}
	sub := NewSubscriber(SubscriberConfig{Addr: srv.addr(), EpochLength: 100}, rec)
	go sub.Run()
	defer sub.Close()

	waitFor(t, func() bool { return rec.len() == 2 }, "retained epochs")
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.gaps) != 1 || rec.gaps[0] != [2]uint64{0, 4} {
		t.Fatalf("gaps = %v, want [[0 4]]", rec.gaps)
	}
	if rec.epochs[0].Epoch != 4 || rec.epochs[1].Epoch != 5 {
		t.Fatalf("epochs = %v, want 4 then 5", rec.epochs)
	}
	if sub.Gaps() != 1 {
		t.Fatalf("Gaps() = %d, want 1", sub.Gaps())
	}
}

func TestSubscriberEpochLengthMismatchIsTerminal(t *testing.T) {
	feed := NewFeed(FeedConfig{Source: "m1", EpochLength: 100, Deadline: -1})
	defer feed.Close()
	srv := serveFeed(t, feed)

	sub := NewSubscriber(SubscriberConfig{
		Addr:        srv.addr(),
		EpochLength: 999, // wrong on purpose
		Link:        wire.Link{BackoffBase: time.Millisecond},
	}, &recorder{})
	err := sub.Run()
	if err == nil || !strings.Contains(err.Error(), "epoch length") {
		t.Fatalf("Run = %v, want terminal epoch-length mismatch", err)
	}
}

func TestSubscriberCloseEndsRunNil(t *testing.T) {
	// No listener at all: the subscriber sits in dial/backoff until Close.
	sub := NewSubscriber(SubscriberConfig{
		Addr: "127.0.0.1:1",                                      // nothing listens here
		Link: wire.Link{BackoffBase: time.Hour, MaxAttempts: -1}, // Close must abort this sleep
	}, &recorder{})
	done := make(chan error, 1)
	go func() { done <- sub.Run() }()
	time.Sleep(20 * time.Millisecond)
	sub.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after Close = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
}

func TestSubscriberMaxAttemptsGivesUp(t *testing.T) {
	sub := NewSubscriber(SubscriberConfig{
		Addr: "127.0.0.1:1",
		Link: wire.Link{BackoffBase: time.Millisecond, MaxAttempts: 3},
	}, &recorder{})
	err := sub.Run()
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("Run = %v, want give-up after 3 attempts", err)
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("Run error should wrap the dial failure, got %v", err)
	}
}
