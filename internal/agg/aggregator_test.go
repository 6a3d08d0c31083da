package agg

import (
	"context"
	"net"
	"testing"
	"time"

	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// startAgg builds, starts, and serves an aggregator on a loopback listener,
// returning it and its address.
func startAgg(t *testing.T, cfg Config) (*Aggregator, string) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	go a.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		a.Shutdown(ctx)
	})
	return a, ln.Addr().String()
}

func TestAggregatorMergesTwoLevels(t *testing.T) {
	// Two "machines" (bare feeds served over the wire), a mid aggregator
	// over both, and a root aggregator over the mid: the root's epochs must
	// carry the machine sums, proving the tiers compose.
	m1 := NewFeed(FeedConfig{Source: "m1", EpochLength: 100, Deadline: -1})
	defer m1.Close()
	m1.Join("s")
	m2 := NewFeed(FeedConfig{Source: "m2", EpochLength: 100, Deadline: -1})
	defer m2.Close()
	m2.Join("s")
	srv1, srv2 := serveFeed(t, m1), serveFeed(t, m2)

	_, midAddr := startAgg(t, Config{
		Source:      "mid",
		Children:    []string{srv1.addr(), srv2.addr()},
		EpochLength: 100,
		Deadline:    -1,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond},
	})
	root, _ := startAgg(t, Config{
		Source:      "root",
		Children:    []string{midAddr},
		EpochLength: 100,
		Deadline:    -1,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond},
	})

	rootSub, first := root.Feed().Subscribe(0, 64)
	if first != 0 {
		t.Fatalf("root subscription first = %d, want 0", first)
	}

	for e := uint64(0); e < 3; e++ {
		m1.Report("s", e, counts(1, 1, 10+e, 7, 7, 1), nil)
		m2.Report("s", e, counts(1, 1, 5, 8, 8, 2), nil)
	}
	for e := uint64(0); e < 3; e++ {
		ep := next(t, (<-chan Epoch)(rootSub.C))
		if ep.Epoch != e || ep.Source != "root" || ep.Partial {
			t.Fatalf("root epoch = %+v, want complete epoch %d", ep, e)
		}
		if got := ep.Counts[event.Tuple{A: 1, B: 1}]; got != 15+e {
			t.Fatalf("root epoch %d merged count = %d, want %d", e, got, 15+e)
		}
		if ep.Counts[event.Tuple{A: 7, B: 7}] != 1 || ep.Counts[event.Tuple{A: 8, B: 8}] != 2 {
			t.Fatalf("root epoch %d counts = %v", e, ep.Counts)
		}
	}
	if pt := root.Metrics().EpochsPartial.Load(); pt != 0 {
		t.Fatalf("root partial epochs = %d, want 0", pt)
	}
}

func TestAggregatorStragglerChildGoesPartial(t *testing.T) {
	m1 := NewFeed(FeedConfig{Source: "m1", EpochLength: 100, Deadline: -1})
	defer m1.Close()
	m1.Join("s")
	srv1 := serveFeed(t, m1)
	// The second child address never answers: a configured child that is
	// down must surface as a named missing member once the straggler
	// deadline fires, not stall the fleet forever or vanish silently.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	a, _ := startAgg(t, Config{
		Source:      "mid",
		Children:    []string{srv1.addr(), deadAddr},
		EpochLength: 100,
		Deadline:    100 * time.Millisecond,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond},
	})
	sub, _ := a.Feed().Subscribe(0, 64)

	m1.Report("s", 0, counts(1, 1, 3), nil)
	ep := next(t, (<-chan Epoch)(sub.C))
	if !ep.Partial || len(ep.Missing) != 1 || ep.Missing[0] != deadAddr {
		t.Fatalf("epoch = %+v, want partial missing %s", ep, deadAddr)
	}
	if ep.Counts[event.Tuple{A: 1, B: 1}] != 3 {
		t.Fatalf("epoch counts = %v, want m1's report preserved", ep.Counts)
	}
	if a.Metrics().EpochsPartial.Load() == 0 {
		t.Fatal("partial epoch counter must be nonzero")
	}
}

func TestAggregatorConfigValidation(t *testing.T) {
	if _, err := New(Config{EpochLength: 100}); err == nil {
		t.Fatal("New with no children must fail")
	}
	if _, err := New(Config{Children: []string{"a:1"}}); err == nil {
		t.Fatal("New with no epoch length must fail")
	}
	if _, err := New(Config{Children: []string{"a:1", "a:1"}, EpochLength: 100}); err == nil {
		t.Fatal("New with duplicate children must fail")
	}
}

// TestAggregatorIdleSubscriptionOutlivesReadTimeout: the aggregator's
// ReadTimeout also bounds its upstream subscriber connections, but a
// subscriber sends nothing after its Subscribe, so an idle subscription
// must survive it. Over ten read timeouts the link never reconnects.
func TestAggregatorIdleSubscriptionOutlivesReadTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	child := ln.Addr().String() // a child that never answers
	ln.Close()
	const timeout = 100 * time.Millisecond
	a, addr := startAgg(t, Config{
		Source:      "mid",
		Children:    []string{child},
		EpochLength: 100,
		Deadline:    -1,
		Link:        wire.Link{ReadTimeout: timeout, BackoffBase: 5 * time.Millisecond},
	})

	sub := NewSubscriber(SubscriberConfig{
		Addr:        addr,
		EpochLength: 100,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond},
	}, &recorder{})
	done := make(chan error, 1)
	go func() { done <- sub.Run() }()
	waitFor(t, func() bool { return a.Metrics().Subscribers.Load() == 1 }, "the subscription to attach")
	time.Sleep(10 * timeout)
	sub.Close()
	if err := <-done; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	if got := sub.Reconnects(); got != 0 {
		t.Fatalf("an idle subscription reconnected %d times over ten read timeouts, want 0", got)
	}
}

func TestAggregatorShutdownClosesSubscribers(t *testing.T) {
	m1 := NewFeed(FeedConfig{Source: "m1", EpochLength: 100, Deadline: -1})
	defer m1.Close()
	m1.Join("s")
	srv1 := serveFeed(t, m1)

	a, err := New(Config{
		Source:      "mid",
		Children:    []string{srv1.addr()},
		EpochLength: 100,
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
	serveDone := make(chan error, 1)
	go func() { serveDone <- a.Serve(ln) }()

	// A live downstream subscriber over the wire.
	rec := &recorder{}
	sub := NewSubscriber(SubscriberConfig{
		Addr:        ln.Addr().String(),
		EpochLength: 100,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond, MaxAttempts: 1},
	}, rec)
	subDone := make(chan error, 1)
	go func() { subDone <- sub.Run() }()
	m1.Report("s", 0, counts(1, 1, 1), nil)
	waitFor(t, func() bool { return rec.len() == 1 }, "one epoch through the aggregator")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve after Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	select {
	case <-subDone: // the downstream link ended one way or another
	case <-time.After(5 * time.Second):
		t.Fatal("downstream subscriber did not end after Shutdown")
	}
}
