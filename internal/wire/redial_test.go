package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// fakeTimer replaces a Redialer's backoff timer: it records each delay and
// fires at once, or never when block is set.
type fakeTimer struct {
	sleeps []time.Duration
	slept  chan struct{} // receives one value per sleep begun
	block  bool
}

func (f *fakeTimer) install(r *Redialer) {
	f.slept = make(chan struct{}, 1024)
	r.after = func(d time.Duration) <-chan time.Time {
		f.sleeps = append(f.sleeps, d)
		f.slept <- struct{}{}
		if f.block {
			return nil
		}
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch
	}
}

// script is an attempt function that answers from a list of results and
// succeeds once the list runs out.
type script struct {
	results []error
	attach  map[int]bool // attempts (0-based) that attached before failing
	calls   int
}

func (s *script) attempt() (bool, error) {
	i := s.calls
	s.calls++
	if i >= len(s.results) {
		return false, nil
	}
	return s.attach[i], s.results[i]
}

func failures(n int) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("attempt %d failed", i)
	}
	return errs
}

// checkSleeps requires sleep i to lie in [d/2, d] for the delay d given.
func checkSleeps(t *testing.T, got []time.Duration, delays ...time.Duration) {
	t.Helper()
	if len(got) != len(delays) {
		t.Fatalf("slept %d times (%v), want %d", len(got), got, len(delays))
	}
	for i, d := range delays {
		if got[i] < d/2 || got[i] > d {
			t.Fatalf("sleep %d = %v, want within [%v, %v]", i, got[i], d/2, d)
		}
	}
}

// TestRedialBackoff: each sleep is uniform in [d/2, d], and d doubles from
// BackoffBase up to BackoffMax.
func TestRedialBackoff(t *testing.T) {
	r := NewRedialer("x", Link{BackoffBase: 8 * time.Millisecond, BackoffMax: 50 * time.Millisecond, MaxAttempts: 8})
	var ft fakeTimer
	ft.install(r)
	s := &script{results: failures(20)}
	err := r.Redial(errors.New("link broke"), s.attempt)
	if err == nil || !strings.Contains(err.Error(), "gave up after 8 attempts") || !errors.Is(err, s.results[6]) {
		t.Fatalf("Redial = %v, want a give-up after 8 attempts wrapping the last attempt's error", err)
	}
	if s.calls != 7 {
		t.Fatalf("%d attempts, want 7 after the break", s.calls)
	}
	ms := time.Millisecond
	checkSleeps(t, ft.sleeps, 8*ms, 16*ms, 32*ms, 50*ms, 50*ms, 50*ms, 50*ms)
}

// TestRedialAttachResets: an attempt that attached ends the outage, so the
// failure count and the delay start over.
func TestRedialAttachResets(t *testing.T) {
	r := NewRedialer("x", Link{BackoffBase: 8 * time.Millisecond, MaxAttempts: 3})
	var ft fakeTimer
	ft.install(r)
	s := &script{results: failures(5), attach: map[int]bool{2: true}}
	err := r.Redial(nil, s.attempt)
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") || !errors.Is(err, s.results[4]) {
		t.Fatalf("Redial = %v, want a give-up after 3 attempts wrapping the last attempt's error", err)
	}
	if s.calls != 5 {
		t.Fatalf("%d attempts, want 5", s.calls)
	}
	ms := time.Millisecond
	checkSleeps(t, ft.sleeps, 8*ms, 16*ms, 8*ms, 16*ms)
}

// TestRedialCounting: MaxAttempts counts the failure that began the
// outage; zero selects DefaultMaxAttempts and a negative value never gives
// up; a nil cause runs the first attempt at once.
func TestRedialCounting(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxAttempts int
		cause       error
		fail        int // failing attempts before one succeeds
		calls       int // attempts made
		sleeps      int
		gaveUp      bool
	}{
		{"one never redials", 1, errors.New("broke"), 100, 0, 0, true},
		{"three redial twice", 3, errors.New("broke"), 100, 2, 2, true},
		{"default", 0, errors.New("broke"), 100, DefaultMaxAttempts - 1, DefaultMaxAttempts - 1, true},
		{"unlimited", -1, nil, 100, 101, 100, false},
		{"nil cause attempts at once", 1, nil, 0, 1, 0, false},
		{"success ends the outage", 3, errors.New("broke"), 1, 2, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRedialer("x", Link{BackoffBase: time.Millisecond, MaxAttempts: tc.maxAttempts})
			var ft fakeTimer
			ft.install(r)
			s := &script{results: failures(tc.fail)}
			err := r.Redial(tc.cause, s.attempt)
			switch {
			case tc.gaveUp && (err == nil || !strings.Contains(err.Error(), "gave up")):
				t.Fatalf("Redial = %v, want a give-up", err)
			case !tc.gaveUp && err != nil:
				t.Fatalf("Redial = %v, want nil", err)
			}
			if s.calls != tc.calls || len(ft.sleeps) != tc.sleeps {
				t.Fatalf("%d attempts and %d sleeps, want %d and %d", s.calls, len(ft.sleeps), tc.calls, tc.sleeps)
			}
		})
	}
}

// TestRedialPermanent: a Permanent error ends the loop at once, as the
// cause or from an attempt, without a sleep.
func TestRedialPermanent(t *testing.T) {
	refused := errors.New("refused")
	for _, tc := range []struct {
		name  string
		cause error
		calls int
	}{
		{"cause", Permanent(refused), 0},
		{"attempt", nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRedialer("x", Link{MaxAttempts: -1})
			var ft fakeTimer
			ft.install(r)
			s := &script{results: []error{fmt.Errorf("resume: %w", Permanent(refused))}}
			err := r.Redial(tc.cause, s.attempt)
			if !IsPermanent(err) || !errors.Is(err, refused) {
				t.Fatalf("Redial = %v, want the permanent refusal", err)
			}
			if s.calls != tc.calls || len(ft.sleeps) != 0 {
				t.Fatalf("%d attempts and %d sleeps, want %d and none", s.calls, len(ft.sleeps), tc.calls)
			}
		})
	}
	if IsPermanent(errors.New("plain")) || IsPermanent(nil) {
		t.Fatal("IsPermanent holds for an unmarked error")
	}
}

// pipeDialer returns a Link.Dialer whose connections are net.Pipe ends;
// each server end goes to serve on its own goroutine.
func pipeDialer(serve func(server net.Conn)) func(string, time.Duration) (net.Conn, error) {
	return func(string, time.Duration) (net.Conn, error) {
		client, server := net.Pipe()
		go serve(server)
		return client, nil
	}
}

// answerHandshake plays the server's half of the handshake, then holds
// the connection until the client closes it.
func answerHandshake(server net.Conn) {
	defer server.Close()
	if NewConn(server).ServerHandshake() != nil {
		return
	}
	io.Copy(io.Discard, server)
}

// TestRedialerClose: Close aborts a backoff sleep and an attempt blocked on
// a silent peer, and spares connections already handed over.
func TestRedialerClose(t *testing.T) {
	t.Run("during a sleep", func(t *testing.T) {
		r := NewRedialer("x", Link{MaxAttempts: -1})
		ft := fakeTimer{block: true}
		ft.install(r)
		done := make(chan error, 1)
		go func() { done <- r.Redial(errors.New("broke"), (&script{}).attempt) }()
		<-ft.slept
		r.Close()
		select {
		case err := <-done:
			if !errors.Is(err, ErrRedialerClosed) {
				t.Fatalf("Redial after Close = %v, want ErrRedialerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not abort the sleep")
		}
	})

	t.Run("during an attempt", func(t *testing.T) {
		dialed := make(chan net.Conn, 1)
		silent := func(string, time.Duration) (net.Conn, error) {
			client, server := net.Pipe()
			dialed <- server // nobody reads: the handshake write blocks
			return client, nil
		}
		r := NewRedialer("x", Link{Dialer: silent, MaxAttempts: -1})
		done := make(chan error, 1)
		go func() {
			done <- r.Redial(nil, func() (bool, error) {
				_, _, err := r.Dial()
				return false, err
			})
		}()
		server := <-dialed
		defer server.Close()
		r.Close()
		select {
		case err := <-done:
			if !errors.Is(err, ErrRedialerClosed) {
				t.Fatalf("Redial after Close = %v, want ErrRedialerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not abort the attempt")
		}
		if _, err := server.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("peer read %v after Close, want EOF: the attempt's connection is still open", err)
		}
		if _, _, err := r.Dial(); !errors.Is(err, ErrRedialerClosed) {
			t.Fatalf("Dial after Close = %v, want ErrRedialerClosed", err)
		}
	})

	t.Run("spares handed-over connections", func(t *testing.T) {
		r := NewRedialer("x", Link{Dialer: pipeDialer(answerHandshake)})
		var resumed net.Conn
		if err := r.Redial(errors.New("broke"), func() (bool, error) {
			conn, _, err := r.Dial()
			resumed = conn
			return false, err
		}); err != nil {
			t.Fatal(err)
		}
		defer resumed.Close()
		// A dial outside Redial, like a session's first, is the caller's.
		first, _, err := r.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer first.Close()
		r.Close()
		for i, conn := range []net.Conn{resumed, first} {
			if _, err := conn.Write([]byte{0}); err != nil {
				t.Fatalf("connection %d after Close: %v", i, err)
			}
		}
	})
}

// TestRedialerDialArmsDeadlines: Dial runs the handshake under the link's
// write deadline, so a peer that never reads fails the dial.
func TestRedialerDialArmsDeadlines(t *testing.T) {
	r := NewRedialer("x", Link{
		Dialer:       pipeDialer(func(net.Conn) {}),
		WriteTimeout: 20 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Dial()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Dial to a silent peer = %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial to a silent peer outlived its 20-ms write deadline")
	}
}
