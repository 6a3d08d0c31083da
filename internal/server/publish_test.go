package server_test

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/agg"
	"hwprof/internal/client"
	"hwprof/internal/event"
	"hwprof/internal/faultinject"
	"hwprof/internal/server"
	"hwprof/internal/wire"
)

// publishConfig returns a daemon config that publishes machine epochs the
// size of the test interval, with the straggler deadline disabled so no
// timing can close an epoch partial under a slow test runner.
func publishConfig() server.Config {
	return server.Config{
		Publish:       true,
		MachineID:     "m1",
		EpochLength:   1000,
		EpochDeadline: -1,
	}
}

// drainEpochs reads every epoch from an in-process feed subscription into a
// slice until the channel would block.
func feedEpochs(t *testing.T, sub *agg.Sub, n int) []agg.Epoch {
	t.Helper()
	var out []agg.Epoch
	for len(out) < n {
		select {
		case ep := <-sub.C:
			out = append(out, ep)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out: %d of %d epochs", len(out), n)
		}
	}
	return out
}

// TestPublishIntervalAlignedSession: a plain (unmarked) session whose
// interval length equals the daemon's epoch length publishes every interval
// profile as a machine epoch, bit-identical to the profiles the client got.
func TestPublishIntervalAlignedSession(t *testing.T) {
	srv, addr := startServer(t, publishConfig())
	sub, first := srv.Feed().Subscribe(0, 64)
	defer srv.Feed().Unsubscribe(sub)
	if first != 0 {
		t.Fatalf("first = %d, want 0", first)
	}

	cfg := testConfig(11)
	remote := remoteProfiles(t, addr, cfg, 2, "gcc", 11, 4)

	eps := feedEpochs(t, sub, 4)
	for i, ep := range eps {
		if ep.Epoch != uint64(i) || ep.Partial || ep.Source != "m1" || ep.Children != 1 {
			t.Fatalf("epoch[%d] = %+v, want complete machine epoch %d", i, ep, i)
		}
		if !reflect.DeepEqual(ep.Counts, remote[i]) {
			t.Fatalf("epoch %d counts diverge from the session's interval profile", i)
		}
	}
	if got := srv.Metrics().EpochsTotal.Load(); got != 4 {
		t.Fatalf("epochs_total = %d, want 4", got)
	}
}

// TestPublishMismatchedIntervalDoesNotPublish: an unmarked session with a
// different interval length cannot align to fleet epochs and must not join
// the feed.
func TestPublishMismatchedIntervalDoesNotPublish(t *testing.T) {
	srv, addr := startServer(t, publishConfig())
	cfg := testConfig(12)
	cfg.IntervalLength = 500 // does not match EpochLength 1000
	remoteProfiles(t, addr, cfg, 1, "gcc", 12, 3)
	if got := srv.Feed().Watermark(); got != 0 {
		t.Fatalf("watermark = %d after a mismatched session, want 0", got)
	}
	if got := srv.Feed().Members(); got != 0 {
		t.Fatalf("members = %d, want 0", got)
	}
}

// TestPublishMarkedSessionParkResume parks a marked session mid-stream (a
// hangup across an epoch boundary) and requires the published machine
// epochs to stay complete and bit-identical to a local run: the parked
// member keeps its feed membership, so the epoch waits out the resume
// instead of closing partial.
func TestPublishMarkedSessionParkResume(t *testing.T) {
	srv, addr := startServer(t, publishConfig())
	sub, _ := srv.Feed().Subscribe(0, 64)
	defer srv.Feed().Unsubscribe(sub)

	cfg := testConfig(13)
	const intervals = 5
	hang := func(c net.Conn) net.Conn { return &faultinject.HangupConn{Conn: c, After: 20_000} }
	sess, err := client.Dial(addr, cfg, client.Options{
		Shards:    2,
		BatchSize: 100,
		Marked:    true,
		Reconnect: true,
		Link:      wire.Link{BackoffBase: 5 * time.Millisecond, Dialer: faultyDialer([]func(net.Conn) net.Conn{hang})},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < intervals; i++ {
		for e := uint64(0); e < cfg.IntervalLength; e++ {
			tp, ok := src.Next()
			if !ok {
				t.Fatal("workload ended early")
			}
			if err := sess.Observe(tp); err != nil {
				t.Fatalf("observe: %v", err)
			}
		}
		if err := sess.Mark(); err != nil {
			t.Fatalf("mark %d: %v", i, err)
		}
	}
	// Drain discards in-flight profiles by design, so collect the five
	// complete interval profiles before asking for the drain. The channel
	// holds them all (cap 64), so the stream above never blocked on this.
	var clientProfiles []map[event.Tuple]uint64
	for len(clientProfiles) < intervals {
		select {
		case p := <-sess.Profiles():
			if !p.Final {
				clientProfiles = append(clientProfiles, p.Counts)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out: %d of %d interval profiles", len(clientProfiles), intervals)
		}
	}
	if _, err := sess.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if sess.Reconnects() == 0 {
		t.Fatal("the hangup never fired: test exercised nothing")
	}

	local := localProfiles(t, cfg, 2, "gcc", 13, intervals)
	assertSameProfiles(t, local, clientProfiles, "marked session through a park/resume")

	eps := feedEpochs(t, sub, intervals)
	for i, ep := range eps {
		if ep.Epoch != uint64(i) || ep.Partial {
			t.Fatalf("epoch[%d] = %+v, want complete despite the park", i, ep)
		}
		if !reflect.DeepEqual(ep.Counts, local[i]) {
			t.Fatalf("machine epoch %d diverges from the local run", i)
		}
	}
	if got := srv.Metrics().EpochsPartial.Load(); got != 0 {
		t.Fatalf("epochs_partial = %d, want 0: the resume covered the outage", got)
	}
}

// TestPublishDrainMidEpochIsPartial: a session draining with observed but
// unreported events leaves its in-progress epoch unclean — the epoch must
// close as a typed partial naming the session, never complete-but-short.
func TestPublishDrainMidEpochIsPartial(t *testing.T) {
	srv, addr := startServer(t, publishConfig())
	sub, _ := srv.Feed().Subscribe(0, 64)
	defer srv.Feed().Unsubscribe(sub)

	cfg := testConfig(14)
	sess, err := client.Dial(addr, cfg, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, 14)
	if err != nil {
		t.Fatal(err)
	}
	// One full interval plus half of the next, then drain: epoch 0 is
	// published, epoch 1 was started but never completed.
	for e := uint64(0); e < cfg.IntervalLength+cfg.IntervalLength/2; e++ {
		tp, _ := src.Next()
		if err := sess.Observe(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Drain(); err != nil {
		t.Fatal(err)
	}

	eps := feedEpochs(t, sub, 2)
	if eps[0].Epoch != 0 || eps[0].Partial {
		t.Fatalf("epoch 0 = %+v, want complete", eps[0])
	}
	if !eps[1].Partial || len(eps[1].Missing) != 1 || !strings.HasPrefix(eps[1].Missing[0], "m1/s") {
		t.Fatalf("epoch 1 = %+v, want partial naming the departed session", eps[1])
	}
	if got := srv.Metrics().EpochsPartial.Load(); got != 1 {
		t.Fatalf("epochs_partial = %d, want 1", got)
	}
}

// TestPublishCleanDrainAtBoundaryLeavesClean: draining exactly at an epoch
// boundary owes nothing — no ghost, no partial marker.
func TestPublishCleanDrainAtBoundary(t *testing.T) {
	srv, addr := startServer(t, publishConfig())
	sub, _ := srv.Feed().Subscribe(0, 64)
	defer srv.Feed().Unsubscribe(sub)

	cfg := testConfig(15)
	sess, err := client.Dial(addr, cfg, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, 15)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 2*cfg.IntervalLength; e++ {
		tp, _ := src.Next()
		if err := sess.Observe(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Drain(); err != nil {
		t.Fatal(err)
	}
	eps := feedEpochs(t, sub, 2)
	for i, ep := range eps {
		if ep.Partial {
			t.Fatalf("epoch[%d] = %+v, want complete after a boundary drain", i, ep)
		}
	}
	if got := srv.Feed().Members(); got != 0 {
		t.Fatalf("members = %d after drain, want 0", got)
	}
}

// TestSubscribeOverWire attaches an agg subscriber to the daemon's wire
// port — the exact link an aggd child uses — and receives the machine
// epochs a live session publishes.
func TestSubscribeOverWire(t *testing.T) {
	srv, addr := startServer(t, publishConfig())
	_ = srv

	rec := &wireRecorder{}
	s := agg.NewSubscriber(agg.SubscriberConfig{
		Addr:        addr,
		EpochLength: 1000,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond},
	}, rec)
	go s.Run()
	defer s.Close()

	cfg := testConfig(16)
	remote := remoteProfiles(t, addr, cfg, 1, "gcc", 16, 3)

	deadline := time.Now().Add(5 * time.Second)
	for rec.len() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of 3 epochs over the wire", rec.len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, ep := range rec.epochs {
		if ep.Epoch != uint64(i) || ep.Source != "m1" || ep.Partial {
			t.Fatalf("wire epoch[%d] = %+v", i, ep)
		}
		if !reflect.DeepEqual(ep.Counts, remote[i]) {
			t.Fatalf("wire epoch %d diverges from the session's profile", i)
		}
	}
}

// TestIdleSubscriptionOutlivesReadTimeout: a subscriber sends nothing
// after its Subscribe, so the daemon's per-read deadline must not end an
// idle subscription. Over ten read timeouts the link never reconnects.
func TestIdleSubscriptionOutlivesReadTimeout(t *testing.T) {
	cfg := publishConfig()
	cfg.ReadTimeout = 100 * time.Millisecond
	srv, addr := startServer(t, cfg)

	s := agg.NewSubscriber(agg.SubscriberConfig{
		Addr:        addr,
		EpochLength: 1000,
		Link:        wire.Link{BackoffBase: 5 * time.Millisecond},
	}, &wireRecorder{})
	done := make(chan error, 1)
	go func() { done <- s.Run() }()
	waitFor(t, "the subscription to attach", func() bool { return srv.Metrics().SubscribersActive.Load() == 1 })
	time.Sleep(10 * cfg.ReadTimeout)
	s.Close()
	if err := <-done; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	if got := s.Reconnects(); got != 0 {
		t.Fatalf("an idle subscription reconnected %d times over ten read timeouts, want 0", got)
	}
}

// TestSubscribeRefusedWithoutPublish: a daemon not publishing refuses the
// subscription with a typed unsupported error, not a hang or a hangup.
func TestSubscribeRefusedWithoutPublish(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(wire.MsgSubscribe, wire.AppendSubscribe(nil, wire.Subscribe{})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("frame type = %d, want error", typ)
	}
	e, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeUnsupported {
		t.Fatalf("error code = %d, want CodeUnsupported", e.Code)
	}
}

// wireRecorder mirrors the agg test recorder for wire subscriptions.
type wireRecorder struct {
	mu     sync.Mutex
	epochs []agg.Epoch
}

func (r *wireRecorder) HandleEpoch(ep agg.Epoch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs = append(r.epochs, ep)
}

func (r *wireRecorder) HandleGap(from, to uint64) {}

func (r *wireRecorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.epochs)
}
