package hwprof

import (
	"net"
	"time"

	"hwprof/internal/client"
	"hwprof/internal/core"
)

// Option configures the context-first entry points Profile, Connect and
// Subscribe. One vocabulary covers all three: stream-shaping options
// (interval length, shards, batch size) apply wherever they make sense,
// link options (timeouts, backoff, reconnect) apply to the remote entry
// points, and options irrelevant to a call are simply ignored by it.
type Option func(*options)

// options is the merged knob set the unified entry points run on.
type options struct {
	run        core.RunConfig
	shards     int
	cfg        *Config
	eng        StreamProfiler
	onInterval IntervalFunc

	remote      client.Options
	noReconnect bool // WithoutReconnect: remote.Reconnect is otherwise on
	start       uint64
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithConfig selects the profiler configuration. Profile and Connect
// default to BestMultiHash(ShortIntervalConfig()) without it.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = &cfg }
}

// WithIntervalLength sets the events-per-interval of the run, overriding
// the configuration's own interval length. On Subscribe it is the epoch
// length validated against the publisher's on attach.
func WithIntervalLength(n uint64) Option {
	return func(o *options) { o.run.IntervalLength = n }
}

// WithShards sets the shard count: locally the engine Profile builds,
// remotely the engine the daemon builds for the session.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n; o.remote.Shards = n }
}

// WithBatchSize sets the batch size of the source→engine hot loop, or of
// the event frames a remote session sends.
func WithBatchSize(n int) Option {
	return func(o *options) { o.run.BatchSize = n; o.remote.BatchSize = n }
}

// WithoutOracle disables the perfect (oracle) profiler on local runs; the
// interval callback then receives a nil perfect map.
func WithoutOracle() Option {
	return func(o *options) { o.run.NoPerfect = true }
}

// WithProfileReuse recycles interval-profile maps back into the engine
// after each callback; the callback must finish with the maps before
// returning.
func WithProfileReuse() Option {
	return func(o *options) { o.run.ReuseProfiles = true }
}

// OnInterval sets the per-interval callback of a local run.
func OnInterval(fn IntervalFunc) Option {
	return func(o *options) { o.onInterval = fn }
}

// WithEngine runs Profile on the given engine — any StreamProfiler —
// instead of building one from the configuration. The caller keeps
// ownership: the engine is left open for Drain or further use.
func WithEngine(hw StreamProfiler) Option {
	return func(o *options) { o.eng = hw }
}

// WithoutReconnect disables automatic reconnect: a broken link surfaces as
// an error instead of being redialed.
func WithoutReconnect() Option {
	return func(o *options) { o.noReconnect = true }
}

// WithBackoff tunes the reconnect backoff: the first delay and its cap.
func WithBackoff(base, max time.Duration) Option {
	return func(o *options) { o.remote.BackoffBase = base; o.remote.BackoffMax = max }
}

// WithMaxAttempts bounds the consecutive failures of one outage, counting
// the break that began it: a session or subscription makes at most n−1
// redial attempts per outage, so 1 never redials. 0 keeps the default of
// 10; negative means unlimited.
func WithMaxAttempts(n int) Option {
	return func(o *options) { o.remote.MaxAttempts = n }
}

// WithDialTimeout bounds each TCP connect of a remote link.
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) { o.remote.DialTimeout = d }
}

// WithReadTimeout bounds each read on a remote link.
func WithReadTimeout(d time.Duration) Option {
	return func(o *options) { o.remote.ReadTimeout = d }
}

// WithWriteTimeout bounds each write on a remote link.
func WithWriteTimeout(d time.Duration) Option {
	return func(o *options) { o.remote.WriteTimeout = d }
}

// WithDialer overrides how remote links dial (tests, fault injection).
func WithDialer(dial func(addr string, timeout time.Duration) (net.Conn, error)) Option {
	return func(o *options) { o.remote.Dialer = dial }
}

// WithMarks opens a remote session in marked mode: the client places every
// interval boundary itself with Session.Mark, instead of the daemon
// counting IntervalLength events. This is how a coordinator that owns a
// fleet-wide union stream keeps per-machine epoch boundaries aligned with
// the union's interval boundaries.
func WithMarks() Option {
	return func(o *options) { o.remote.Marked = true }
}

// WithStartEpoch sets the first epoch a Subscribe call needs; epochs below
// it are never delivered.
func WithStartEpoch(e uint64) Option {
	return func(o *options) { o.start = e }
}
