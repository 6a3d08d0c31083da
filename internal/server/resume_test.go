package server_test

import (
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"hwprof"
	"hwprof/internal/client"
	"hwprof/internal/event"
	"hwprof/internal/faultinject"
	"hwprof/internal/server"
	"hwprof/internal/wire"
)

// faultyDialer returns a client Dialer that wraps the n-th dial (0-based)
// with the connection wrap returns; dials beyond the plan are clean.
func faultyDialer(plan []func(net.Conn) net.Conn) func(string, time.Duration) (net.Conn, error) {
	dials := 0
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if dials < len(plan) && plan[dials] != nil {
			conn = plan[dials](conn)
		}
		dials++
		return conn, nil
	}
}

// resumeRun streams a workload through a reconnecting session whose dials
// are faulted per plan, asserting the delivered profiles are bit-identical
// to an uninterrupted local run.
func resumeRun(t *testing.T, addr string, seed uint64, intervals int, plan []func(net.Conn) net.Conn) *client.Session {
	t.Helper()
	cfg := testConfig(seed)
	sess, err := client.Dial(addr, cfg, client.Options{
		Shards:    2,
		BatchSize: 100,
		Reconnect: true,
		Link:      wire.Link{BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond, Dialer: faultyDialer(plan)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Resumable() {
		t.Fatal("session is not resumable despite Reconnect and a resume-capable daemon")
	}
	src, err := hwprof.NewWorkload("gcc", hwprof.KindValue, seed)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[hwprof.Tuple]uint64
	n, err := sess.Run(hwprof.Limit(src, cfg.IntervalLength*uint64(intervals)),
		func(_ int, counts map[hwprof.Tuple]uint64) { got = append(got, counts) })
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if n != intervals {
		t.Fatalf("interrupted run delivered %d intervals, want %d", n, intervals)
	}
	local := localProfiles(t, cfg, 2, "gcc", seed, intervals)
	assertSameProfiles(t, local, got, "resumed session")
	return sess
}

// TestResumeAfterHangupMidStream kills the session's connection mid-frame
// at varied byte offsets — including several in a row — and requires the
// transparently resumed run to deliver profiles bit-identical to an
// uninterrupted local hwprof.Profile run.
func TestResumeAfterHangupMidStream(t *testing.T) {
	srv, addr := startServer(t, server.Config{})

	hangup := func(after int64) func(net.Conn) net.Conn {
		return func(c net.Conn) net.Conn { return &faultinject.HangupConn{Conn: c, After: after} }
	}
	// Deterministically randomized offsets, all past the handshake+hello
	// prologue (~60 bytes) and spread across the ~17KB the stream writes.
	rng := rand.New(rand.NewSource(42))
	var offsets []int64
	for i := 0; i < 4; i++ {
		offsets = append(offsets, 120+rng.Int63n(15_000))
	}
	offsets = append(offsets, 150, 4096)

	for _, off := range offsets {
		sess := resumeRun(t, addr, uint64(off), 5, []func(net.Conn) net.Conn{hangup(off)})
		if got := sess.Reconnects(); got != 1 {
			t.Errorf("offset %d: reconnects = %d, want 1", off, got)
		}
	}
	// Three consecutive kills on one session: first connection and the
	// next two resume attempts all die mid-stream.
	sess := resumeRun(t, addr, 77, 5, []func(net.Conn) net.Conn{hangup(200), hangup(640), hangup(910)})
	if got := sess.Reconnects(); got < 1 {
		t.Errorf("after repeated hangups: reconnects = %d, want >= 1", got)
	}
	if got := srv.Metrics().ResumesTotal.Load(); got < uint64(len(offsets)) {
		t.Errorf("resumes_total = %d, want >= %d", got, len(offsets))
	}
}

// TestResumeAfterCorruptFrame flips one bit in the client's byte stream:
// the daemon must detect the corruption at the frame boundary, park the
// session rather than destroy it, and the client's resume must replay the
// damaged tail so the profiles still match a clean local run exactly.
func TestResumeAfterCorruptFrame(t *testing.T) {
	// The short read timeout bounds the stall when the flipped byte lands
	// in a length prefix and desynchronizes the stream: the daemon times
	// out, parks, and the client resumes.
	srv, addr := startServer(t, server.Config{ReadTimeout: time.Second})

	flip := func(at int64) func(net.Conn) net.Conn {
		return func(c net.Conn) net.Conn { return &faultinject.FlipConn{Conn: c, Byte: at} }
	}
	for _, at := range []int64{500, 2048, 7777} {
		resumeRun(t, addr, uint64(at), 5, []func(net.Conn) net.Conn{flip(at)})
	}
	if got := srv.Metrics().CorruptFrames.Load(); got < 1 {
		t.Errorf("frames_corrupt = %d, want >= 1", got)
	}
	if got := srv.Metrics().ResumesTotal.Load(); got < 3 {
		t.Errorf("resumes_total = %d, want >= 3", got)
	}
}

// TestTombstoneExpiry parks a session by killing its connection and never
// resumes it: the grace period must discard the engine, count the expiry,
// and release the admission budget.
func TestTombstoneExpiry(t *testing.T) {
	srv, addr := startServer(t, server.Config{ResumeGrace: 50 * time.Millisecond})
	conn, _ := rawSession(t, addr, testConfig(1))
	conn.Close()

	m := srv.Metrics()
	waitFor(t, "tombstone to expire", func() bool { return m.TombstonesExpired.Load() >= 1 })
	waitFor(t, "parked gauge to drop", func() bool { return m.SessionsParked.Load() == 0 })
	waitFor(t, "admission budget to release", func() bool { return m.AdmissionCostUsed.Load() == 0 })
}

// TestResumeUnknownSession asks to resume a session the daemon never held:
// the refusal must carry CodeUnknownSession and count a resume failure.
func TestResumeUnknownSession(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	conn, _, typ, payload := rawResume(t, addr, wire.Resume{SessionID: 0xdeadbeef, Intervals: 2, Floor: 17})
	defer conn.Close()
	if typ != wire.MsgError {
		t.Fatalf("expected error frame, got type %d", typ)
	}
	e, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeUnknownSession {
		t.Fatalf("error code %d, want CodeUnknownSession", e.Code)
	}
	if !strings.Contains(e.Msg, "unknown session") {
		t.Fatalf("refusal %q does not name the unknown session", e.Msg)
	}
	if got := srv.Metrics().ResumeFailures.Load(); got < 1 {
		t.Errorf("resume_failures = %d, want >= 1", got)
	}
}

// TestTombstoneExpiredResumeRefused parks a real session, waits out the
// grace period, and checks a late resume is refused rather than adopted.
func TestTombstoneExpiredResumeRefused(t *testing.T) {
	srv, addr := startServer(t, server.Config{ResumeGrace: 30 * time.Millisecond})
	conn, wc := rawSession(t, addr, testConfig(11))

	batch := make([]event.Tuple, 50)
	for i := range batch {
		batch[i] = event.Tuple{A: uint64(i), B: 1}
	}
	if err := wc.WriteFrame(wire.MsgBatch, wire.AppendBatch(nil, batch)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	m := srv.Metrics()
	waitFor(t, "tombstone to expire", func() bool { return m.TombstonesExpired.Load() >= 1 })

	conn2, _, typ, payload := rawResume(t, addr, wire.Resume{SessionID: 1}) // first session the daemon issued
	defer conn2.Close()
	if typ != wire.MsgError {
		t.Fatalf("expected error frame, got type %d", typ)
	}
	e, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeUnknownSession {
		t.Fatalf("error code %d, want CodeUnknownSession", e.Code)
	}
}

// TestResumeRacesPark parks one session and resumes it at once, over and
// over. A resume may adopt the tombstone while the parking attachment is
// still settling, so that attachment must not touch the session once the
// tombstone is published: run under -race, any such access is reported,
// and closing the adopter's attachDone panics the daemon.
func TestResumeRacesPark(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	conn, wc := rawSession(t, addr, testConfig(3))
	// One event per cycle: the session never reaches an interval boundary,
	// so every resume is valid at Intervals 0 and Floor 0.
	batch := wire.AppendBatch(nil, []event.Tuple{{A: 1, B: 1}})
	const cycles = 200
	for i := 0; i < cycles; i++ {
		if err := wc.WriteFrame(wire.MsgBatch, batch); err != nil {
			t.Fatalf("cycle %d: writing batch: %v", i, err)
		}
		conn.Close()
		var typ byte
		var payload []byte
		conn, wc, typ, payload = rawResume(t, addr, wire.Resume{SessionID: 1}) // first session the daemon issued
		if typ != wire.MsgResumeAck {
			e, _ := wire.DecodeError(payload)
			t.Fatalf("cycle %d: frame type %d (%+v), want resume-ack", i, typ, e)
		}
	}
	conn.Close()
	m := srv.Metrics()
	waitFor(t, "every resume to be counted", func() bool { return m.ResumesTotal.Load() == cycles })
}

// TestResumeRedeliversWrittenNotice loses a notice the daemon did write:
// the client reads profile 0 and the resize notice after it, then the
// connection drops. The daemon cannot tell what the client read, so a
// resume at interval 1 must resend the notice for boundary 0 right after
// the ack — notices are redelivered by boundary index, like profiles —
// and the client drops the copy it already holds.
func TestResumeRedeliversWrittenNotice(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	conn, wc := rawSession(t, addr, testConfig(5))
	if err := srv.ResizeSession(1, 2000, 256, 1); err != nil { // first session the daemon issued
		t.Fatal(err)
	}
	batch := make([]event.Tuple, 1000)
	for i := range batch {
		batch[i] = event.Tuple{A: uint64(i % 13), B: 1}
	}
	if err := wc.WriteFrame(wire.MsgBatch, wire.AppendBatch(nil, batch)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []byte{wire.MsgProfile, wire.MsgNotice} {
		typ, _, err := wc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != want {
			t.Fatalf("frame type %d, want %d", typ, want)
		}
	}
	conn.Close()

	conn, wc, typ, payload := rawResume(t, addr, wire.Resume{SessionID: 1, Intervals: 1, Floor: 1000})
	defer conn.Close()
	if typ != wire.MsgResumeAck {
		e, _ := wire.DecodeError(payload)
		t.Fatalf("frame type %d (%+v), want resume-ack", typ, e)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		t.Fatalf("no frame after the resume ack: %v", err)
	}
	if typ != wire.MsgNotice {
		t.Fatalf("frame type %d after the resume ack, want the notice", typ)
	}
	n, err := wire.DecodeNotice(payload)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != wire.NoticeResize || n.Index != 0 || n.Observed != 1000 || n.IntervalLength != 2000 {
		t.Fatalf("redelivered notice = %+v, want the resize to interval 2000 at boundary 0, observed 1000", n)
	}
}

// TestRefusedResumeStaysResumable refuses a resume of a known, parked
// session — its replay floor is past the server's stream position — and
// requires the session to go back among the tombstones, so a valid resume
// still adopts it.
func TestRefusedResumeStaysResumable(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	conn, wc := rawSession(t, addr, testConfig(13))
	batch := make([]event.Tuple, 1000)
	for i := range batch {
		batch[i] = event.Tuple{A: uint64(i % 13), B: 1}
	}
	if err := wc.WriteFrame(wire.MsgBatch, wire.AppendBatch(nil, batch)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.ReadFrame(); err != nil || typ != wire.MsgProfile {
		t.Fatalf("profile 0: type %d, err %v", typ, err)
	}
	conn.Close()
	m := srv.Metrics()
	waitFor(t, "the session to park", func() bool { return m.SessionsParked.Load() == 1 })

	conn, _, typ, payload := rawResume(t, addr, wire.Resume{SessionID: 1, Floor: 5000}) // first session the daemon issued
	conn.Close()
	if typ != wire.MsgError {
		t.Fatalf("frame type %d, want the refusal", typ)
	}
	e, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeProtocol || !strings.Contains(e.Msg, "replay floor 5000 is beyond the server's stream position 1000") {
		t.Fatalf("refusal = %+v, want a protocol error naming floor 5000 and position 1000", e)
	}
	waitFor(t, "the refused session to park again", func() bool { return m.SessionsParked.Load() == 1 })

	conn, _, typ, payload = rawResume(t, addr, wire.Resume{SessionID: 1, Intervals: 1, Floor: 1000})
	defer conn.Close()
	if typ != wire.MsgResumeAck {
		e, _ := wire.DecodeError(payload)
		t.Fatalf("frame type %d (%+v), want resume-ack", typ, e)
	}
}
