package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/client"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/journal"
	"hwprof/internal/server"
	"hwprof/internal/wire"
)

// materialize captures n events of a workload into a slice, so the same
// stream can be replayed through both the daemon and local reference
// engines at arbitrary split points.
func materialize(t *testing.T, workload string, seed, n uint64) []event.Tuple {
	t.Helper()
	src, err := hwprof.NewWorkload(workload, hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]event.Tuple, 0, n)
	for uint64(len(out)) < n {
		tp, ok := src.Next()
		if !ok {
			t.Fatalf("workload dried up at %d of %d events", len(out), n)
		}
		out = append(out, tp)
	}
	return out
}

// segmentProfiles runs events through a fresh local engine at the given
// geometry — a cold start at the segment's stream offset — returning every
// complete interval profile. This is the reference an elastic resize must
// match: the server's post-resize profiles are bit-identical to a cold
// start of the post-resize geometry at the resize boundary.
func segmentProfiles(t *testing.T, cfg core.Config, shards int, events []event.Tuple) []map[event.Tuple]uint64 {
	t.Helper()
	var out []map[event.Tuple]uint64
	_, err := hwprof.Profile(context.Background(), hwprof.NewSliceSource(events),
		hwprof.WithConfig(cfg), hwprof.WithShards(shards), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, hw map[event.Tuple]uint64) { out = append(out, hw) }))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hookSource yields a fixed slice of tuples, firing registered callbacks
// when the stream reaches their offsets — the test's handle for staging
// resizes at chosen stream positions. Every event at offset >= hook offset
// is provably unsent when the hook fires, so a staged resize always lands
// at a boundary the server has not yet placed.
type hookSource struct {
	tuples []event.Tuple
	pos    int
	hooks  map[int]func()
}

func (h *hookSource) Next() (event.Tuple, bool) {
	if f, ok := h.hooks[h.pos]; ok {
		delete(h.hooks, h.pos)
		f()
	}
	if h.pos >= len(h.tuples) {
		return event.Tuple{}, false
	}
	tp := h.tuples[h.pos]
	h.pos++
	return tp, true
}

func (h *hookSource) Err() error { return nil }

// untilSource streams from an inner source until stop reports true, then
// yields tail further events and ends. It decouples the organic pressure
// test from machine speed: the stream lasts exactly as long as the ladder
// needs to bottom out, and the tail gives the client a real stream to
// resume with after the park. max bounds the run if stop never fires.
type untilSource struct {
	inner   event.Source
	stop    func() bool
	tail    int
	max     int
	n       int
	stopped bool
}

func (u *untilSource) Next() (event.Tuple, bool) {
	if !u.stopped && (u.n >= u.max || u.stop()) {
		u.stopped = true
	}
	if u.stopped {
		if u.tail <= 0 {
			return event.Tuple{}, false
		}
		u.tail--
	}
	u.n++
	return u.inner.Next()
}

func (u *untilSource) Err() error { return u.inner.Err() }

// resizeNotices filters a session's notice trail down to the
// geometry-changing announcements that drive differential validation.
func resizeNotices(trail []client.Notice) []client.Notice {
	var out []client.Notice
	for _, n := range trail {
		if n.Kind == client.NoticeResize {
			out = append(out, n)
		}
	}
	return out
}

// wantSegmented rebuilds the expected profile sequence from the notice
// trail: each resize notice splits the stream at its Observed boundary, and
// every segment runs cold through a local engine at the geometry then in
// force.
func wantSegmented(t *testing.T, base core.Config, baseShards int, stream []event.Tuple, resizes []client.Notice) []map[event.Tuple]uint64 {
	t.Helper()
	cfg, shards := base, baseShards
	start := uint64(0)
	var want []map[event.Tuple]uint64
	for _, n := range resizes {
		if n.Observed < start || n.Observed > uint64(len(stream)) {
			t.Fatalf("notice Observed %d outside stream (prev split %d, len %d)", n.Observed, start, len(stream))
		}
		want = append(want, segmentProfiles(t, cfg, shards, stream[start:n.Observed])...)
		start = n.Observed
		cfg.IntervalLength = n.IntervalLength
		cfg.TotalEntries = n.TotalEntries
		shards = n.Shards
	}
	return append(want, segmentProfiles(t, cfg, shards, stream[start:])...)
}

// TestElasticResizeDifferential is the randomized-resize differential
// suite: sessions resized at random stream offsets — interval length, table
// entries and shard count all changing live — must produce profiles
// bit-identical to cold-started engines of each post-resize geometry run
// over the corresponding stream segments.
func TestElasticResizeDifferential(t *testing.T) {
	type geo struct {
		length          uint64
		entries, shards int
	}
	choices := []geo{
		{500, 256, 2},
		{2000, 128, 1},
		{1000, 512, 4},
		{250, 256, 1},
		{1500, 128, 2},
		{3000, 512, 2},
	}
	rng := rand.New(rand.NewSource(20260807))
	for run := 0; run < 3; run++ {
		g1 := choices[rng.Intn(len(choices))]
		g2 := choices[rng.Intn(len(choices))]
		for g2 == g1 {
			g2 = choices[rng.Intn(len(choices))]
		}
		o1 := 1000 + rng.Intn(3000) // in [10%, 40%) of the stream
		o2 := 5500 + rng.Intn(2000) // in [55%, 75%)
		t.Run(fmt.Sprintf("run=%d/o1=%d/o2=%d", run, o1, o2), func(t *testing.T) {
			const intervals = 10
			ccfg := testConfig(uint64(100 + run))
			stream := materialize(t, "gcc", ccfg.Seed, ccfg.IntervalLength*intervals)
			srv, addr := startServer(t, server.Config{
				JournalDir:  t.TempDir(),
				JournalSync: journal.SyncInterval,
				ResumeGrace: 20 * time.Second,
			})
			sess, err := client.Dial(addr, ccfg, client.Options{Shards: 2, BatchSize: 100})
			if err != nil {
				t.Fatal(err)
			}
			stage := func(g geo) func() {
				return func() {
					if err := srv.ResizeSession(sess.ID(), g.length, g.entries, g.shards); err != nil {
						t.Errorf("staging resize: %v", err)
					}
				}
			}
			src := &hookSource{tuples: stream, hooks: map[int]func(){o1: stage(g1), o2: stage(g2)}}
			var remote []map[event.Tuple]uint64
			if _, err := sess.Run(src, func(_ int, counts map[event.Tuple]uint64) {
				remote = append(remote, counts)
			}); err != nil {
				t.Fatalf("remote run: %v", err)
			}
			resizes := resizeNotices(sess.NoticeTrail())
			if len(resizes) == 0 {
				t.Fatal("no resize landed; staging offsets were too late")
			}
			want := wantSegmented(t, ccfg, 2, stream, resizes)
			assertSameProfiles(t, want, remote, fmt.Sprintf("resizes at %v", resizes))
			if got := srv.Metrics().ElasticResizes.Load(); got != uint64(len(resizes)) {
				t.Errorf("elastic_resizes = %d, want %d", got, len(resizes))
			}
			if got := sess.Resizes(); got != uint64(len(resizes)) {
				t.Errorf("client resize count = %d, want %d", got, len(resizes))
			}
		})
	}
}

// TestElasticResizeCrashRecovery crashes the daemon after a live resize
// committed and requires recovery to rebuild the session at the RESIZED
// geometry from the journal's resize record — the resumed stream must stay
// bit-identical through crash, recovery, and a further resize staged on the
// restarted daemon.
func TestElasticResizeCrashRecovery(t *testing.T) {
	const intervals = 8
	const batchSize = 100
	ccfg := testConfig(31)
	total := ccfg.IntervalLength * intervals
	stream := materialize(t, "gcc", 31, total)
	cfg := server.Config{
		JournalDir:  t.TempDir(),
		JournalSync: journal.SyncBatch,
		ResumeGrace: 20 * time.Second,
	}
	srv1, addr, done1 := crashServer(t, cfg, "127.0.0.1:0", 0)

	var sess *client.Session
	var srv2 *server.Server
	hooks := map[int]func(){
		// Before the crash: a resize the journal must carry across it.
		1000: func() {
			if err := srv1.ResizeSession(sess.ID(), 2000, 128, 1); err != nil {
				t.Errorf("staging pre-crash resize: %v", err)
			}
		},
		// After recovery (the gate below holds the stream until the restart
		// finished, so srv2 is set): a resize on the recovered session.
		6000: func() {
			if err := srv2.ResizeSession(sess.ID(), 500, 256, 2); err != nil {
				t.Errorf("staging post-recovery resize: %v", err)
			}
		},
	}
	const killAt = 4500
	gated := &gatedSource{
		inner: &hookSource{tuples: stream, hooks: hooks},
		after: killAt, gate: make(chan struct{}),
	}

	var err error
	sess, err = client.Dial(addr, ccfg, client.Options{
		Shards:    2,
		BatchSize: batchSize,
		Reconnect: true,
		Link:      wire.Link{BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		got []map[event.Tuple]uint64
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		var r result
		_, r.err = sess.Run(gated, func(_ int, counts map[event.Tuple]uint64) {
			r.got = append(r.got, counts)
		})
		resCh <- r
	}()

	waitFor(t, "pre-crash resize to commit", func() bool {
		return srv1.Metrics().ElasticResizes.Load() >= 1
	})
	reach := uint64(killAt - killAt%batchSize)
	waitFor(t, "events to reach the first daemon", func() bool {
		return srv1.Metrics().EventsTotal.Load() >= reach
	})
	srv1.Kill()
	if err := <-done1; err != nil {
		t.Fatalf("killed daemon's Serve: %v", err)
	}

	restarted, _, done2 := crashServer(t, cfg, addr, 1)
	srv2 = restarted
	close(gated.gate)

	r := <-resCh
	if r.err != nil {
		t.Fatalf("resumed run: %v", r.err)
	}
	resizes := resizeNotices(sess.NoticeTrail())
	if len(resizes) < 1 {
		t.Fatal("no resize notice survived the crash cycle")
	}
	want := wantSegmented(t, ccfg, 2, stream, resizes)
	assertSameProfiles(t, want, r.got, fmt.Sprintf("crash cycle, resizes at %v", resizes))
	if got := restarted.Metrics().JournalRecovered.Load(); got != 1 {
		t.Errorf("journal_recovered_sessions = %d, want 1", got)
	}
	srv2.Kill()
	if err := <-done2; err != nil {
		t.Fatalf("second daemon's Serve: %v", err)
	}
}

// TestElasticControllerDegradesUnderPressure runs the organic path: a
// flooding client against a deliberately slow (per-batch fsync) shed-policy
// daemon with the controller on a hair trigger. The session must enter the
// shed rung, descend the ladder through at least one real resize to a park,
// and the client must transparently resume past it.
func TestElasticControllerDegradesUnderPressure(t *testing.T) {
	cfg := server.Config{
		JournalDir:     t.TempDir(),
		JournalSync:    journal.SyncBatch, // fsync per batch: the worker brake
		ResumeGrace:    20 * time.Second,
		Shed:           true,
		QueueDepth:     16,
		ShedHighWater:  2, // a couple of queued batches at a boundary is pressure
		ShedLowWater:   1,
		MaxShards:      1, // no scale-out escape hatch: force the ladder
		Elastic:        true,
		ElasticEngage:  1,
		ElasticRelease: 1000, // no de-escalation inside the test window
		ElasticSettle:  1,
	}
	srv, addr := startServer(t, cfg)
	ccfg := testConfig(5)
	ccfg.IntervalLength = 250
	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, 5)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.Dial(addr, ccfg, client.Options{
		BatchSize: 500,
		Reconnect: true,
		Link:      wire.Link{BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stream until the ladder bottoms out — however fast this machine
	// drains the queue — then a tail so the client resumes past the park
	// with real events still to send.
	m := srv.Metrics()
	park := m.ElasticActions.With("park")
	stream := &untilSource{
		inner: src,
		stop:  func() bool { return park.Load() > 0 },
		tail:  10_000,
		max:   5_000_000,
	}
	if _, err := sess.Run(stream, nil); err != nil {
		t.Fatalf("run under pressure: %v", err)
	}

	if got := m.EventsShed.Load(); got == 0 {
		t.Error("events_shed = 0; the pressure rig did not shed")
	}
	if got := m.ElasticActions.With("shed").Load(); got == 0 {
		t.Error("no shed-rung controller action recorded")
	}
	if got := m.ElasticResizes.Load(); got == 0 {
		t.Error("elastic_resizes = 0; the ladder never resized the engine")
	}
	if got := m.ElasticActions.With("park").Load(); got == 0 {
		t.Error("no park action; the ladder never bottomed out")
	}
	if got := sess.Reconnects(); got == 0 {
		t.Error("client never reconnected across the park")
	}
	var sawDegrade, sawPark bool
	for _, n := range sess.NoticeTrail() {
		switch n.Kind {
		case client.NoticeDegrade:
			sawDegrade = true
		case client.NoticePark:
			sawPark = true
		}
	}
	if !sawDegrade || !sawPark {
		t.Errorf("notice trail missing degrade (%v) or park (%v)", sawDegrade, sawPark)
	}
}

// TestElasticResizeRefusedByTenantBudget stages a growth the tenant's
// budget slice cannot pay for: the resize must be refused with the typed
// arithmetic, counted, and the stream must continue bit-identically at the
// admitted geometry as if nothing was staged.
func TestElasticResizeRefusedByTenantBudget(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		TenantBudget: 0.07, // one floored reference session (1/16) fits; growth does not
		ResumeGrace:  20 * time.Second,
	})
	ccfg := testConfig(9)
	const intervals = 6
	stream := materialize(t, "gcc", 9, ccfg.IntervalLength*intervals)
	sess, err := client.Dial(addr, ccfg, client.Options{Shards: 1, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	src := &hookSource{tuples: stream, hooks: map[int]func(){
		1500: func() {
			if err := srv.ResizeSession(sess.ID(), 4000, 1024, 2); err != nil {
				t.Errorf("staging resize: %v", err)
			}
		},
	}}
	var remote []map[event.Tuple]uint64
	if _, err := sess.Run(src, func(_ int, counts map[event.Tuple]uint64) {
		remote = append(remote, counts)
	}); err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if got := srv.Metrics().ElasticRefused.Load(); got == 0 {
		t.Error("elastic_refused = 0; the budget never refused the growth")
	}
	if got := srv.Metrics().ElasticResizes.Load(); got != 0 {
		t.Errorf("elastic_resizes = %d on a refused resize, want 0", got)
	}
	if n := resizeNotices(sess.NoticeTrail()); len(n) != 0 {
		t.Errorf("client saw %d resize notices after a refusal", len(n))
	}
	want := segmentProfiles(t, ccfg, 1, stream)
	assertSameProfiles(t, want, remote, "refused resize")
}

// TestShardCountFit drives both server paths that set a session's shard
// count from a request: a Hello at admission and an operator resize. Each
// clamps the request to MaxShards and then fits it to divide the entries,
// so 16 and 12 requested both run as 4 under MaxShards 6 with 256 entries.
func TestShardCountFit(t *testing.T) {
	srv, addr := startServer(t, server.Config{MaxShards: 6, ResumeGrace: 20 * time.Second})
	ccfg := testConfig(11) // 256 entries: only powers of two divide them

	t.Run("hello", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wc := wire.NewConn(conn)
		if err := wc.ClientHandshake(); err != nil {
			t.Fatal(err)
		}
		if err := wc.WriteFrame(wire.MsgHello, wire.AppendHello(nil, wire.Hello{Config: ccfg, Shards: 16})); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wc.ReadFrame()
		if err != nil || typ != wire.MsgHelloAck {
			t.Fatalf("hello-ack: type %d, err %v", typ, err)
		}
		ack, err := wire.DecodeHelloAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		waitFor(t, "the session to park", func() bool {
			return srv.Metrics().SessionsParked.Load() == 1
		})
		// The resume ack reports the geometry the session runs.
		conn2, _, typ, payload := rawResume(t, addr, wire.Resume{SessionID: ack.SessionID})
		defer conn2.Close()
		if typ != wire.MsgResumeAck {
			t.Fatalf("resume: expected resume-ack, got type %d", typ)
		}
		ra, err := wire.DecodeResumeAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Shards != 4 {
			t.Fatalf("hello asking 16 shards runs %d, want 4", ra.Shards)
		}
	})

	t.Run("resize", func(t *testing.T) {
		sess, err := client.Dial(addr, ccfg, client.Options{Shards: 1, BatchSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		// Staged before the first event, so it lands at boundary 0.
		if err := srv.ResizeSession(sess.ID(), ccfg.IntervalLength, ccfg.TotalEntries, 12); err != nil {
			t.Fatal(err)
		}
		src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, ccfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(hwprof.Limit(src, 3*ccfg.IntervalLength), func(int, map[event.Tuple]uint64) {}); err != nil {
			t.Fatal(err)
		}
		resizes := resizeNotices(sess.NoticeTrail())
		if len(resizes) != 1 || resizes[0].Shards != 4 {
			t.Fatalf("resize asking 12 shards left notices %+v, want one to 4 shards", resizes)
		}
	})
}

// TestTenantRateResumeExemption: a tenant that exhausted its session-open
// rate must still be able to Resume a parked session — resumption continues
// an already-admitted session and costs no new admission — while a fresh
// Hello stays refused.
func TestTenantRateResumeExemption(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		TenantRate:  0.0001, // one token, effectively never refilled
		TenantBurst: 1,
		ResumeGrace: 20 * time.Second,
	})
	ccfg := testConfig(3)

	// Open the session that consumes the tenant's only token.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(wire.MsgHello, wire.AppendHello(nil, wire.Hello{Config: ccfg, Shards: 1})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil || typ != wire.MsgHelloAck {
		t.Fatalf("hello-ack: type %d, err %v", typ, err)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]event.Tuple, 50)
	for i := range batch {
		batch[i] = event.Tuple{A: uint64(i), B: 1}
	}
	if err := wc.WriteFrame(wire.MsgBatch, wire.AppendBatch(nil, batch)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "events to reach the engine", func() bool {
		return srv.Metrics().EventsTotal.Load() >= 50
	})
	conn.Close()
	waitFor(t, "the session to park", func() bool {
		return srv.Metrics().SessionsParked.Load() == 1
	})

	// A fresh Hello from the same tenant is rate-refused.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	wc2 := wire.NewConn(conn2)
	if err := wc2.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	if err := wc2.WriteFrame(wire.MsgHello, wire.AppendHello(nil, wire.Hello{Config: ccfg, Shards: 1})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = wc2.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("second hello: expected error frame, got type %d", typ)
	}
	e, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeOverload || !strings.Contains(e.Msg, "session rate") {
		t.Fatalf("second hello refusal = code %d %q, want rate refusal", e.Code, e.Msg)
	}

	// Resuming the parked session succeeds: the limiter gates new
	// admissions, not continuations.
	conn3, _, typ, payload := rawResume(t, addr, wire.Resume{SessionID: ack.SessionID})
	defer conn3.Close()
	if typ != wire.MsgResumeAck {
		if typ == wire.MsgError {
			if e, err2 := wire.DecodeError(payload); err2 == nil {
				t.Fatalf("resume refused: code %d %q", e.Code, e.Msg)
			}
		}
		t.Fatalf("resume: expected resume-ack, got type %d", typ)
	}
	if got := srv.Metrics().AdmissionRefusedRate.Load(); got != 1 {
		t.Errorf("admission_refused_rate = %d, want 1", got)
	}
}
