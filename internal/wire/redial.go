package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Link defaults.
const (
	// DefaultDialTimeout bounds each TCP connect.
	DefaultDialTimeout = 10 * time.Second
	// DefaultBackoffBase is the first redial delay.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultBackoffMax caps the exponential redial delay.
	DefaultBackoffMax = 2 * time.Second
	// DefaultMaxAttempts bounds the consecutive failed attempts of one
	// outage.
	DefaultMaxAttempts = 10
)

// Link tunes one client-side link — an event session or an epoch
// subscription: how it dials, how long its reads and writes may stall, and
// how it redials after a break.
type Link struct {
	// Dialer overrides the TCP dial, redials included — e.g. to wrap
	// connections for fault injection. Nil uses net.DialTimeout.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)

	// DialTimeout bounds each connect; 0 selects DefaultDialTimeout.
	DialTimeout time.Duration

	// ReadTimeout bounds every read; 0 disables. A timeout is a break:
	// the link redials.
	ReadTimeout time.Duration

	// WriteTimeout bounds every write; 0 disables. A timeout is a break:
	// the link redials.
	WriteTimeout time.Duration

	// BackoffBase is the first redial delay; it doubles per failed attempt,
	// and each sleep is uniform in [delay/2, delay], so a restarted peer is
	// not greeted by every link at once. 0 selects DefaultBackoffBase.
	BackoffBase time.Duration

	// BackoffMax caps the redial delay; 0 selects DefaultBackoffMax.
	BackoffMax time.Duration

	// MaxAttempts bounds the consecutive failures of one outage, counting
	// the failure that began it, so 1 never redials and a link makes at
	// most MaxAttempts−1 redial attempts per outage. 0 selects
	// DefaultMaxAttempts; negative means unlimited.
	MaxAttempts int
}

// ErrRedialerClosed is returned by a Redialer's Dial and Redial after
// Close.
var ErrRedialerClosed = errors.New("wire: redialer closed")

// permanentError marks a failure that redialing cannot help.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// Permanent marks err as a failure that redialing cannot help — a refusal,
// a protocol violation, a cancelled caller: Redial returns it at once.
func Permanent(err error) error { return permanentError{err} }

// IsPermanent reports whether err, or any error it wraps, was marked by
// Permanent.
func IsPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

// Redialer dials one address under a Link and redials it after a break.
// The client's session resume and the aggregator's subscription both run
// their outages through one.
type Redialer struct {
	addr string
	link Link

	// after is the backoff timer; tests replace it.
	after func(time.Duration) <-chan time.Time

	mu        sync.Mutex
	closed    bool
	stop      chan struct{} // closed by Close: aborts a backoff sleep
	redialing bool          // an attempt is running: its dials are tracked
	conn      net.Conn      // the connection of the attempt in flight
}

// NewRedialer returns a Redialer for addr, with link's zero knobs set to
// their defaults.
func NewRedialer(addr string, link Link) *Redialer {
	if link.Dialer == nil {
		link.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if link.DialTimeout == 0 {
		link.DialTimeout = DefaultDialTimeout
	}
	if link.BackoffBase == 0 {
		link.BackoffBase = DefaultBackoffBase
	}
	if link.BackoffMax == 0 {
		link.BackoffMax = DefaultBackoffMax
	}
	if link.MaxAttempts == 0 {
		link.MaxAttempts = DefaultMaxAttempts
	}
	return &Redialer{addr: addr, link: link, after: time.After, stop: make(chan struct{})}
}

// Dial makes one connection: the TCP dial, the link's read and write
// deadlines, and the client handshake. A connection dialed by an attempt
// under Redial is closed by Close until that attempt returns.
func (r *Redialer) Dial() (net.Conn, *Conn, error) {
	conn, err := r.link.Dialer(r.addr, r.link.DialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("dial %s: %w", r.addr, err)
	}
	r.mu.Lock()
	closed := r.closed
	if r.redialing {
		r.conn = conn
	}
	r.mu.Unlock()
	if closed {
		conn.Close()
		return nil, nil, ErrRedialerClosed
	}
	wc := NewConn(WithDeadlines(conn, r.link.ReadTimeout, r.link.WriteTimeout))
	if err := wc.ClientHandshake(); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, wc, nil
}

// Redial runs one outage. A nil cause runs the first attempt at once; a
// non-nil cause is the failure that began the outage, and every retry
// first sleeps the jittered delay. attempt reports whether it attached —
// the outage ended before its error — which resets the failure count and
// the delay. Redial returns nil when an attempt succeeds, the error itself
// when it is Permanent, ErrRedialerClosed after Close, and the last error
// wrapped in "gave up after N attempts" after MaxAttempts consecutive
// failures.
func (r *Redialer) Redial(cause error, attempt func() (attached bool, err error)) error {
	delay, failures, err := r.link.BackoffBase, 0, cause
	for {
		if err != nil {
			if IsPermanent(err) {
				return err
			}
			if failures++; r.link.MaxAttempts >= 0 && failures >= r.link.MaxAttempts {
				return fmt.Errorf("gave up after %d attempts: %w", failures, err)
			}
			select {
			case <-r.after(delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))):
			case <-r.stop:
				return ErrRedialerClosed
			}
			delay = min(2*delay, r.link.BackoffMax)
		}
		r.mu.Lock()
		r.redialing = true
		r.mu.Unlock()
		var attached bool
		attached, err = attempt()
		r.mu.Lock()
		r.redialing, r.conn = false, nil
		closed := r.closed
		r.mu.Unlock()
		if err == nil {
			return nil
		}
		if closed {
			return ErrRedialerClosed
		}
		if attached {
			delay, failures = r.link.BackoffBase, 0
		}
	}
}

// Close ends the redialing: a backoff sleep aborts, the connection of an
// attempt still in flight closes, and Dial and Redial fail from then on.
// A connection an attempt has already handed over is left to its owner.
func (r *Redialer) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	close(r.stop)
	if r.conn != nil {
		r.conn.Close()
	}
}
