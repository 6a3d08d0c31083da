package hwprof

import (
	"context"
	"net"
	"time"

	"hwprof/internal/client"
	"hwprof/internal/wire"
)

// RemoteSession is an open profiling session with a profiled daemon: the
// remote counterpart of a ShardedProfiler. Stream events with Observe /
// ObserveBatch / Flush, consume interval profiles from Profiles (or drive
// everything with Run), and finish with Drain (keeps the partial interval)
// or Close (discards it). On a session opened with WithMarks, place each
// interval boundary with Mark. See cmd/profiled for the daemon and
// cmd/profctl for the CLI client.
type RemoteSession = client.Session

// RemoteProfile is one interval profile delivered by a daemon, including
// the cumulative shed count under the daemon's shed backpressure policy.
type RemoteProfile = client.Profile

// RemoteNotice is one elastic-serving announcement from a daemon — a live
// resize, a degradation-ladder move, or an imminent park — as surfaced by
// RemoteSession.Notices and RemoteSession.NoticeTrail. It is an absolute
// snapshot of the session's geometry from interval Index+1 on; the session
// applies it to its own stream arithmetic before surfacing it, so callers
// may ignore notices entirely.
type RemoteNotice = client.Notice

// Notice kinds carried by RemoteNotice.Kind.
const (
	NoticeResize  = client.NoticeResize
	NoticeDegrade = client.NoticeDegrade
	NoticePark    = client.NoticePark
)

// ErrRemoteClosed is returned by operations on a remote session that was
// already drained or closed.
var ErrRemoteClosed = client.ErrSessionClosed

// Connect is the unified remote entry point: it opens a profiling session
// with the profiled daemon at addr (host:port), running the configuration
// given WithConfig — BestMultiHash over the paper's short-interval regime
// by default — on an engine of WithShards shards. Events then stream over
// the wire in batches, and the daemon returns one profile per completed
// interval.
//
// On a block-policy daemon the returned profiles are bit-identical to a
// local Profile run over the same stream, configuration and seed — the
// daemon places interval boundaries exactly where the local batched driver
// does. On a shed-policy daemon profiles are lossy under overload; each
// RemoteProfile carries the cumulative shed count.
//
// Reconnect is on by default: when the daemon retains disconnected
// sessions, a broken connection is redialed under jittered exponential
// backoff and the session resumed where the stream broke, with the
// delivered profiles staying bit-identical to an uninterrupted run. Tune
// it with WithBackoff / WithMaxAttempts or disable it with
// WithoutReconnect. ctx governs connection establishment, including the
// dials of later reconnects; cancel it to stop redialing: the session
// ends within one backoff delay, with an error wrapping ctx's. A dialer
// given WithDialer replaces the one that watches ctx.
func Connect(ctx context.Context, addr string, opts ...Option) (*RemoteSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	cfg := BestMultiHash(ShortIntervalConfig())
	if o.cfg != nil {
		cfg = *o.cfg
	}
	co := o.remote
	co.Reconnect = !o.noReconnect
	if co.Dialer == nil {
		co.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			if err := ctx.Err(); err != nil {
				return nil, wire.Permanent(err)
			}
			d := net.Dialer{Timeout: timeout}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return client.Dial(addr, cfg, co)
}
