package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/wire"
)

func testConfig() core.Config {
	cfg := core.BestMultiHash(core.ShortIntervalConfig())
	cfg.IntervalLength = 1000
	return cfg
}

// fakeDaemon answers the client over net.Pipe, one scripted attachment per
// dial, with the daemon's side of the handshake already done.
type fakeDaemon struct {
	t      *testing.T
	script []func(wc *wire.Conn) error
	dials  atomic.Int32
	wg     sync.WaitGroup // attachments still running
}

func (f *fakeDaemon) dial(string, time.Duration) (net.Conn, error) {
	i := int(f.dials.Add(1)) - 1
	if i >= len(f.script) {
		return nil, fmt.Errorf("fake daemon: no attachment scripted for dial %d", i)
	}
	client, server := net.Pipe()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer server.Close()
		wc := wire.NewConn(server)
		if err := wc.ServerHandshake(); err != nil {
			f.t.Errorf("dial %d: handshake: %v", i, err)
			return
		}
		if err := f.script[i](wc); err != nil {
			f.t.Errorf("dial %d: %v", i, err)
		}
	}()
	return client, nil
}

// expect reads one frame and checks its type.
func expect(wc *wire.Conn, typ byte) ([]byte, error) {
	got, payload, err := wc.ReadFrame()
	if err != nil {
		return nil, err
	}
	if got != typ {
		return nil, fmt.Errorf("frame type %d, want %d", got, typ)
	}
	return payload, nil
}

// readEvents consumes batch frames until exactly n events have arrived.
func readEvents(wc *wire.Conn, n uint64) error {
	var buf []event.Tuple
	for got := uint64(0); got < n; {
		payload, err := expect(wc, wire.MsgBatch)
		if err != nil {
			return err
		}
		if buf, err = wire.DecodeBatch(payload, buf); err != nil {
			return err
		}
		got += uint64(len(buf))
		if got > n {
			return fmt.Errorf("received %d events, want %d", got, n)
		}
	}
	return nil
}

func sendProfile(wc *wire.Conn, index uint64, final bool) error {
	counts := map[event.Tuple]uint64{{A: 1, B: index}: 100}
	return wc.WriteFrame(wire.MsgProfile, wire.AppendProfile(nil, wire.ProfileMsg{Index: index, Final: final, Counts: counts}))
}

func observe(t *testing.T, s *Session, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		if err := s.Observe(event.Tuple{A: i % 7, B: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDialRefusesOtherVersion: a daemon that answers the handshake with
// any version but wire.Version fails Dial with wire.ErrProtocol.
func TestDialRefusesOtherVersion(t *testing.T) {
	for _, v := range []byte{0, 1, 2, 3, 4, 5, wire.Version + 1} {
		dialer := func(string, time.Duration) (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				if _, err := io.ReadFull(server, make([]byte, len(wire.Magic)+1)); err != nil {
					t.Errorf("reading the client handshake: %v", err)
					return
				}
				server.Write(append([]byte(wire.Magic), v))
			}()
			return client, nil
		}
		_, err := Dial("fake", testConfig(), Options{Link: wire.Link{Dialer: dialer}})
		if !errors.Is(err, wire.ErrProtocol) {
			t.Fatalf("daemon at version %d: Dial err = %v, want wire.ErrProtocol", v, err)
		}
	}
}

// TestReconnectResumes drops the link after the first profile and checks
// the redial: Reconnects rises, the Resume carries the client's replay
// floor, and a ResumeAck that changes IntervalLength counts as a resize
// while later profiles are still accepted.
func TestReconnectResumes(t *testing.T) {
	cfg := testConfig()
	L := cfg.IntervalLength
	for _, tc := range []struct {
		name        string
		ackLen      uint64
		wantResizes uint64
	}{
		{"same geometry", L, 0},
		{"resized", 2 * L, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drop := make(chan struct{})
			resumes := make(chan wire.Resume, 1)
			f := &fakeDaemon{t: t}
			f.script = []func(*wire.Conn) error{
				func(wc *wire.Conn) error {
					if _, err := expect(wc, wire.MsgHello); err != nil {
						return err
					}
					ack := wire.HelloAck{SessionID: 7, Resume: true, QueueDepth: 4}
					if err := wc.WriteFrame(wire.MsgHelloAck, wire.AppendHelloAck(nil, ack)); err != nil {
						return err
					}
					if err := readEvents(wc, L); err != nil {
						return err
					}
					if err := sendProfile(wc, 0, false); err != nil {
						return err
					}
					<-drop
					return nil
				},
				func(wc *wire.Conn) error {
					payload, err := expect(wc, wire.MsgResume)
					if err != nil {
						return err
					}
					r, err := wire.DecodeResume(payload)
					if err != nil {
						return err
					}
					resumes <- r
					ack := wire.ResumeAck{Intervals: 1, StreamPos: L, IntervalLength: tc.ackLen,
						TotalEntries: cfg.TotalEntries, NumTables: cfg.NumTables, Shards: 1}
					if err := wc.WriteFrame(wire.MsgResumeAck, wire.AppendResumeAck(nil, ack)); err != nil {
						return err
					}
					if err := readEvents(wc, tc.ackLen); err != nil {
						return err
					}
					if err := sendProfile(wc, 1, false); err != nil {
						return err
					}
					if _, err := expect(wc, wire.MsgDrain); err != nil {
						return err
					}
					if err := sendProfile(wc, 2, true); err != nil {
						return err
					}
					return wc.WriteFrame(wire.MsgGoodbye, nil)
				},
			}

			s, err := Dial("fake", cfg, Options{Reconnect: true, Link: wire.Link{BackoffBase: time.Millisecond, Dialer: f.dial}})
			if err != nil {
				t.Fatal(err)
			}
			observe(t, s, L)
			if p := <-s.Profiles(); p.Index != 0 {
				t.Fatalf("first profile has index %d, want 0", p.Index)
			}
			s.mu.Lock()
			floor := s.floorLocked()
			s.mu.Unlock()
			if floor != L {
				t.Fatalf("replay floor %d after profile 0, want %d", floor, L)
			}

			close(drop)
			var r wire.Resume
			select {
			case r = <-resumes:
			case <-time.After(10 * time.Second):
				t.Fatalf("no resume after the link dropped: %v", s.Err())
			}
			if r.SessionID != 7 || r.Intervals != 1 || r.Floor != floor {
				t.Fatalf("resume = %+v, want session 7, 1 interval, floor %d", r, floor)
			}

			observe(t, s, tc.ackLen)
			if p := <-s.Profiles(); p.Index != 1 || p.Final {
				t.Fatalf("profile after the resume = index %d final %v, want index 1", p.Index, p.Final)
			}
			if got := s.Reconnects(); got != 1 {
				t.Fatalf("Reconnects = %d, want 1", got)
			}
			if got := s.Resizes(); got != tc.wantResizes {
				t.Fatalf("Resizes = %d, want %d", got, tc.wantResizes)
			}
			if _, err := s.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		})
	}
}

// helloAck answers a scripted attachment's Hello with a resumable session.
func helloAck(wc *wire.Conn) error {
	if _, err := expect(wc, wire.MsgHello); err != nil {
		return err
	}
	ack := wire.HelloAck{SessionID: 7, Resume: true, QueueDepth: 4}
	return wc.WriteFrame(wire.MsgHelloAck, wire.AppendHelloAck(nil, ack))
}

// resumeAck answers a scripted attachment's Resume at interval 1 and
// stream position L, under the given interval length.
func resumeAck(wc *wire.Conn, cfg core.Config, length uint64) error {
	if _, err := expect(wc, wire.MsgResume); err != nil {
		return err
	}
	ack := wire.ResumeAck{Intervals: 1, StreamPos: cfg.IntervalLength, IntervalLength: length,
		TotalEntries: cfg.TotalEntries, NumTables: cfg.NumTables, Shards: 1}
	return wc.WriteFrame(wire.MsgResumeAck, wire.AppendResumeAck(nil, ack))
}

// finish serves the tail of a scripted attachment: profile idx, then the
// drain reply and goodbye.
func finish(wc *wire.Conn, idx uint64) error {
	if err := sendProfile(wc, idx, false); err != nil {
		return err
	}
	if _, err := expect(wc, wire.MsgDrain); err != nil {
		return err
	}
	if err := sendProfile(wc, idx+1, true); err != nil {
		return err
	}
	return wc.WriteFrame(wire.MsgGoodbye, nil)
}

// TestResumeDropsResentProfile: a daemon that resends profile 0 after a
// resume at interval 1 (a profile below the expected index) must not
// deliver it to the caller a second time.
func TestResumeDropsResentProfile(t *testing.T) {
	cfg := testConfig()
	L := cfg.IntervalLength
	drop := make(chan struct{})
	f := &fakeDaemon{t: t}
	f.script = []func(*wire.Conn) error{
		func(wc *wire.Conn) error {
			if err := helloAck(wc); err != nil {
				return err
			}
			if err := readEvents(wc, L); err != nil {
				return err
			}
			if err := sendProfile(wc, 0, false); err != nil {
				return err
			}
			<-drop
			return nil
		},
		func(wc *wire.Conn) error {
			if err := resumeAck(wc, cfg, L); err != nil {
				return err
			}
			// A pipe has no buffer: the resend a daemon would write right
			// after the ack waits for the client's replay here.
			if err := readEvents(wc, L); err != nil {
				return err
			}
			if err := sendProfile(wc, 0, false); err != nil {
				return err
			}
			return finish(wc, 1)
		},
	}

	s, err := Dial("fake", cfg, Options{Reconnect: true, Link: wire.Link{BackoffBase: time.Millisecond, Dialer: f.dial}})
	if err != nil {
		t.Fatal(err)
	}
	observe(t, s, L)
	if p := <-s.Profiles(); p.Index != 0 {
		t.Fatalf("first profile has index %d, want 0", p.Index)
	}
	close(drop)
	observe(t, s, L)
	if p := <-s.Profiles(); p.Index != 1 || p.Final {
		t.Fatalf("profile after the resume = index %d final %v, want index 1: the resent profile 0 was delivered again", p.Index, p.Final)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestResumeDropsRedeliveredNotice: after a resume the daemon redelivers
// the notice for the boundary the client may have missed. A client that
// already holds it must record it once in NoticeTrail, surface it once,
// and count its resize once.
func TestResumeDropsRedeliveredNotice(t *testing.T) {
	cfg := testConfig()
	L := cfg.IntervalLength
	notice := wire.AppendNotice(nil, wire.Notice{Kind: wire.NoticeResize, Index: 0, Observed: L,
		IntervalLength: 2 * L, TotalEntries: cfg.TotalEntries, NumTables: cfg.NumTables, Shards: 1,
		Reason: "operator resize"})
	drop := make(chan struct{})
	f := &fakeDaemon{t: t}
	f.script = []func(*wire.Conn) error{
		func(wc *wire.Conn) error {
			if err := helloAck(wc); err != nil {
				return err
			}
			if err := readEvents(wc, L); err != nil {
				return err
			}
			if err := sendProfile(wc, 0, false); err != nil {
				return err
			}
			if err := wc.WriteFrame(wire.MsgNotice, notice); err != nil {
				return err
			}
			<-drop
			return nil
		},
		func(wc *wire.Conn) error {
			if err := resumeAck(wc, cfg, 2*L); err != nil {
				return err
			}
			if err := readEvents(wc, 2*L); err != nil {
				return err
			}
			if err := wc.WriteFrame(wire.MsgNotice, notice); err != nil {
				return err
			}
			return finish(wc, 1)
		},
	}

	s, err := Dial("fake", cfg, Options{Reconnect: true, Link: wire.Link{BackoffBase: time.Millisecond, Dialer: f.dial}})
	if err != nil {
		t.Fatal(err)
	}
	observe(t, s, L)
	if p := <-s.Profiles(); p.Index != 0 {
		t.Fatalf("first profile has index %d, want 0", p.Index)
	}
	if n := <-s.Notices(); n.Index != 0 || n.IntervalLength != 2*L {
		t.Fatalf("notice = %+v, want the resize at boundary 0", n)
	}
	close(drop)
	observe(t, s, 2*L)
	if p := <-s.Profiles(); p.Index != 1 || p.Final {
		t.Fatalf("profile after the resume = index %d final %v, want index 1", p.Index, p.Final)
	}
	if trail := s.NoticeTrail(); len(trail) != 1 {
		t.Fatalf("notice trail holds %d notices, want the redelivered one once: %+v", len(trail), trail)
	}
	select {
	case n := <-s.Notices():
		t.Fatalf("redelivered notice surfaced again: %+v", n)
	default:
	}
	if got := s.Resizes(); got != 1 {
		t.Fatalf("Resizes = %d, want 1", got)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestReplayFloorAcrossResizeAndShed checks pruning by implicit acks
// within one attachment: each profile proves the daemon consumed its
// interval's observed events plus everything shed so far, and a resize
// notice re-anchors that arithmetic at the new interval length. Pruning
// drops whole frames, so the exact floor must lie inside the log's first
// frame. The daemon reads ahead into the next interval before profile 1,
// so the floor cannot hide behind the cap at everything sent.
func TestReplayFloorAcrossResizeAndShed(t *testing.T) {
	cfg := testConfig()
	L := cfg.IntervalLength
	const shed, ahead = 37, 100
	profile := func(wc *wire.Conn, index uint64) error {
		counts := map[event.Tuple]uint64{{A: 1, B: index}: 100}
		return wc.WriteFrame(wire.MsgProfile, wire.AppendProfile(nil, wire.ProfileMsg{Index: index, Shed: shed, Counts: counts}))
	}
	f := &fakeDaemon{t: t}
	f.script = []func(*wire.Conn) error{
		func(wc *wire.Conn) error {
			if err := helloAck(wc); err != nil {
				return err
			}
			if err := readEvents(wc, L+shed); err != nil {
				return err
			}
			if err := profile(wc, 0); err != nil {
				return err
			}
			notice := wire.Notice{Kind: wire.NoticeResize, Index: 0, Observed: L, Shed: shed,
				IntervalLength: 2 * L, TotalEntries: cfg.TotalEntries, NumTables: cfg.NumTables, Shards: 1,
				Reason: "operator resize"}
			if err := wc.WriteFrame(wire.MsgNotice, wire.AppendNotice(nil, notice)); err != nil {
				return err
			}
			if err := readEvents(wc, 2*L+ahead); err != nil {
				return err
			}
			if err := profile(wc, 1); err != nil {
				return err
			}
			if _, err := expect(wc, wire.MsgDrain); err != nil {
				return err
			}
			if err := sendProfile(wc, 2, true); err != nil {
				return err
			}
			return wc.WriteFrame(wire.MsgGoodbye, nil)
		},
	}

	s, err := Dial("fake", cfg, Options{Reconnect: true, Link: wire.Link{BackoffBase: time.Millisecond, Dialer: f.dial}})
	if err != nil {
		t.Fatal(err)
	}
	// head is the stream span of the log's first frame; an empty log
	// holds nothing below everything sent.
	head := func() (pos, end uint64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.log) == 0 {
			return s.sentPos, s.sentPos
		}
		return s.log[0].pos, s.log[0].end
	}
	observe(t, s, L+shed)
	if p := <-s.Profiles(); p.Index != 0 {
		t.Fatalf("first profile has index %d, want 0", p.Index)
	}
	if got, _ := head(); got != L+shed {
		t.Fatalf("replay floor %d after profile 0, want %d", got, L+shed)
	}
	observe(t, s, 2*L+ahead)
	if p := <-s.Profiles(); p.Index != 1 {
		t.Fatalf("second profile has index %d, want 1", p.Index)
	}
	if pos, end := head(); 3*L+shed < pos || 3*L+shed >= end {
		t.Fatalf("log's first frame [%d, %d) after profile 1 does not hold the floor %d", pos, end, 3*L+shed)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestCloseAbortsResumeAttempt: Close returns promptly while a resume
// attempt waits on a daemon that read the Resume and never answers.
func TestCloseAbortsResumeAttempt(t *testing.T) {
	drop := make(chan struct{})
	resumed := make(chan struct{})
	f := &fakeDaemon{t: t}
	f.script = []func(*wire.Conn) error{
		func(wc *wire.Conn) error {
			if err := helloAck(wc); err != nil {
				return err
			}
			<-drop
			return nil
		},
		func(wc *wire.Conn) error {
			if _, err := expect(wc, wire.MsgResume); err != nil {
				return err
			}
			close(resumed)
			wc.ReadFrame() // answer nothing until the client hangs up
			return nil
		},
	}
	s, err := Dial("fake", testConfig(), Options{Reconnect: true, Link: wire.Link{BackoffBase: time.Millisecond, Dialer: f.dial}})
	if err != nil {
		t.Fatal(err)
	}
	close(drop)
	select {
	case <-resumed:
	case <-time.After(10 * time.Second):
		t.Fatalf("no resume after the link dropped: %v", s.Err())
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close blocked behind the resume attempt")
	}
	if err := s.Err(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Err after Close = %v, want ErrSessionClosed", err)
	}
}

// TestReconnectGivesUp: a session whose every resume dial fails ends with
// "gave up after N attempts" after exactly N dials, N being MaxAttempts:
// the break is the outage's first failure, so the first attachment is
// followed by N−1 resume attempts.
func TestReconnectGivesUp(t *testing.T) {
	for _, tc := range []struct{ maxAttempts, want int }{{0, wire.DefaultMaxAttempts}, {3, 3}} {
		f := &fakeDaemon{t: t, script: []func(*wire.Conn) error{helloAck}}
		link := wire.Link{BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, MaxAttempts: tc.maxAttempts, Dialer: f.dial}
		s, err := Dial("fake", testConfig(), Options{Reconnect: true, Link: link})
		if err != nil {
			t.Fatal(err)
		}
		for range s.Profiles() {
		}
		want := fmt.Sprintf("gave up after %d attempts", tc.want)
		if err := s.Err(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("MaxAttempts %d: Err = %v, want %q", tc.maxAttempts, err, want)
		}
		if got := f.dials.Load(); got != int32(tc.want) {
			t.Fatalf("MaxAttempts %d: %d dials, want %d", tc.maxAttempts, got, tc.want)
		}
		s.Close()
	}
}
