package client

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"hwprof/internal/event"
	"hwprof/internal/faultinject"
	"hwprof/internal/wire"
)

// TestWriteFailureReportsDaemonError: on a session that cannot resume, a
// daemon that explains itself with an Error frame and hangs up makes the
// next write fail with that explanation, not with the raw write error —
// whether the write is a Flush, Drain's flush of pending events, the drain
// frame itself, or Run's flush at the end of its source.
func TestWriteFailureReportsDaemonError(t *testing.T) {
	refusal := wire.ErrorMsg{Code: wire.CodeInternal, Msg: "engine failed"}
	for _, tc := range []struct {
		name    string
		pending int
		write   func(*Session) error
	}{
		{"flush", 3, (*Session).Flush},
		{"drain with pending events", 3, func(s *Session) error { _, err := s.Drain(); return err }},
		{"drain frame", 0, func(s *Session) error { _, err := s.Drain(); return err }},
		{"run", 0, func(s *Session) error {
			_, err := s.Run(event.NewSliceSource(make([]event.Tuple, 3)), nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeDaemon{t: t}
			f.script = []func(*wire.Conn) error{func(wc *wire.Conn) error {
				if err := helloAck(wc); err != nil {
					return err
				}
				return wc.WriteFrame(wire.MsgError, wire.AppendError(nil, refusal))
			}}
			s, err := Dial("fake", testConfig(), Options{Link: wire.Link{Dialer: f.dial}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Resumable() {
				t.Fatal("session without Reconnect is resumable")
			}
			for range s.Profiles() {
				// The reader ends once it has recorded the daemon's error.
			}
			for i := 0; i < tc.pending; i++ {
				if err := s.Observe(event.Tuple{A: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			err = tc.write(s)
			var got wire.ErrorMsg
			if !errors.As(err, &got) || got != refusal {
				t.Fatalf("write after the daemon's error = %v, want its error %v", err, refusal)
			}
			if serr := s.Err(); serr != err {
				t.Fatalf("Err = %v, want the write's error %v", serr, err)
			}
			f.wg.Wait()
		})
	}
}

// TestNoGoodbyeFailsRunAndDrain: a daemon that answers the drain with the
// final profile but hangs up without a goodbye fails Run and Drain with the
// reader's broken-stream error, after delivering every profile it sent.
func TestNoGoodbyeFailsRunAndDrain(t *testing.T) {
	cfg := testConfig()
	L := cfg.IntervalLength
	for _, tc := range []struct {
		name  string
		drive func(*testing.T, *Session) error
	}{
		{"run", func(t *testing.T, s *Session) error {
			tuples := make([]event.Tuple, L)
			n, err := s.Run(event.NewSliceSource(tuples), nil)
			if n != 1 {
				t.Errorf("Run delivered %d intervals, want 1", n)
			}
			return err
		}},
		{"drain", func(t *testing.T, s *Session) error {
			observe(t, s, L)
			if p := <-s.Profiles(); p.Index != 0 || p.Final {
				t.Errorf("profile = index %d final %v, want index 0", p.Index, p.Final)
			}
			final, err := s.Drain()
			if final == nil {
				t.Error("Drain dropped the final profile the daemon sent")
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeDaemon{t: t}
			f.script = []func(*wire.Conn) error{func(wc *wire.Conn) error {
				if err := helloAck(wc); err != nil {
					return err
				}
				if err := readEvents(wc, L); err != nil {
					return err
				}
				if err := sendProfile(wc, 0, false); err != nil {
					return err
				}
				if _, err := expect(wc, wire.MsgDrain); err != nil {
					return err
				}
				return sendProfile(wc, 1, true) // and hang up
			}}
			s, err := Dial("fake", cfg, Options{Link: wire.Link{Dialer: f.dial}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			err = tc.drive(t, s)
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "daemon closed the stream") {
				t.Fatalf("err = %v, want the daemon's hang-up", err)
			}
			f.wg.Wait()
		})
	}
}

// TestRunSourceFailsMidStream: a source that fails mid-stream fails Run
// with the source's error, and the session is closed, not drained: the
// daemon must not mistake the failure for the stream's end.
func TestRunSourceFailsMidStream(t *testing.T) {
	cfg := testConfig()
	L := cfg.IntervalLength
	cause := errors.New("disk gone")
	f := &fakeDaemon{t: t}
	f.script = []func(*wire.Conn) error{func(wc *wire.Conn) error {
		if err := helloAck(wc); err != nil {
			return err
		}
		for {
			typ, _, err := wc.ReadFrame()
			switch {
			case err != nil || typ == wire.MsgGoodbye:
				return nil
			case typ == wire.MsgDrain:
				t.Error("the session drained after its source failed")
				return nil
			}
		}
	}}
	s, err := Dial("fake", cfg, Options{Link: wire.Link{Dialer: f.dial}})
	if err != nil {
		t.Fatal(err)
	}
	src := &faultinject.FailingSource{Inner: event.NewSliceSource(make([]event.Tuple, 2*L)), After: L / 2, Cause: cause}
	n, err := s.Run(src, nil)
	if !errors.Is(err, cause) || !strings.Contains(err.Error(), "source failed mid-stream") {
		t.Fatalf("Run err = %v, want the source's failure", err)
	}
	if n != 0 {
		t.Fatalf("Run delivered %d intervals, want 0", n)
	}
	if err := s.Observe(event.Tuple{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Flush after Run = %v, want ErrSessionClosed", err)
	}
	f.wg.Wait()
}

// TestResumeRefusals: every way a daemon can answer a Resume other than
// with an acceptable ResumeAck. Transport corruption on the resume
// exchange is retried on a fresh dial; any other error code is a refusal,
// and so is an ack outside the range [floor, sent] the session can replay
// from — neither is retried.
func TestResumeRefusals(t *testing.T) {
	cfg := testConfig()
	L := cfg.IntervalLength
	errorReply := func(code byte) func(*wire.Conn) error {
		return func(wc *wire.Conn) error {
			return wc.WriteFrame(wire.MsgError, wire.AppendError(nil, wire.ErrorMsg{Code: code, Msg: "no"}))
		}
	}
	ackReply := func(pos uint64) func(*wire.Conn) error {
		return func(wc *wire.Conn) error {
			return wc.WriteFrame(wire.MsgResumeAck, wire.AppendResumeAck(nil, wire.ResumeAck{Intervals: 1, StreamPos: pos}))
		}
	}
	for _, tc := range []struct {
		name  string
		reply func(*wire.Conn) error
		want  string // "" for a session that resumes on the next dial
		code  byte
	}{
		{"corrupt is retried", errorReply(wire.CodeCorrupt), "", 0},
		{"unknown session", errorReply(wire.CodeUnknownSession), "resume failed", wire.CodeUnknownSession},
		{"overload", errorReply(wire.CodeOverload), "resume failed", wire.CodeOverload},
		{"ack below the floor", ackReply(L - 1), "outside the replayable range", 0},
		{"ack past everything sent", ackReply(L + 1), "outside the replayable range", 0},
		{"another frame", func(wc *wire.Conn) error { return sendProfile(wc, 1, false) }, "expected resume-ack", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
					if _, err := expect(wc, wire.MsgResume); err != nil {
						return err
					}
					return tc.reply(wc)
				},
			}
			if tc.want == "" {
				// Only a retried resume dials again; a refusal that is
				// retried finds no daemon and gives up.
				f.script = append(f.script, func(wc *wire.Conn) error {
					if err := resumeAck(wc, cfg); err != nil {
						return err
					}
					if err := readEvents(wc, L); err != nil {
						return err
					}
					return finish(wc, 1)
				})
			}
			link := wire.Link{BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, MaxAttempts: 3, Dialer: f.dial}
			s, err := Dial("fake", cfg, Options{Reconnect: true, Link: link})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			observe(t, s, L)
			if p := <-s.Profiles(); p.Index != 0 {
				t.Fatalf("first profile has index %d, want 0", p.Index)
			}
			close(drop)

			if tc.want == "" {
				observe(t, s, L)
				if p := <-s.Profiles(); p.Index != 1 || p.Final {
					t.Fatalf("profile after the resume = index %d final %v, want index 1", p.Index, p.Final)
				}
				if _, err := s.Drain(); err != nil {
					t.Fatalf("Drain: %v", err)
				}
				if got := s.Reconnects(); got != 1 {
					t.Fatalf("Reconnects = %d, want 1", got)
				}
				if got := f.dials.Load(); got != 3 {
					t.Fatalf("%d dials, want the first, the refused resume and its retry", got)
				}
				f.wg.Wait()
				return
			}

			for range s.Profiles() {
				// The reader ends once the resume is refused.
			}
			err = s.Err()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Err = %v, want %q", err, tc.want)
			}
			var e wire.ErrorMsg
			if tc.code != 0 && (!errors.As(err, &e) || e.Code != tc.code) {
				t.Fatalf("Err = %v, want the daemon's code %d", err, tc.code)
			}
			if got := f.dials.Load(); got != 2 {
				t.Fatalf("%d dials, want the first and the refused resume only", got)
			}
			if got := s.Reconnects(); got != 0 {
				t.Fatalf("Reconnects = %d after a refused resume, want 0", got)
			}
			if err := s.Observe(event.Tuple{}); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != s.Err() {
				t.Fatalf("Flush after the refusal = %v, want the session's error", err)
			}
			f.wg.Wait()
		})
	}
}
