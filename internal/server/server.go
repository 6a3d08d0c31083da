// Package server implements the profiling daemon: a TCP server that
// multiplexes many client sessions, each running its own sharded profiling
// engine over the event stream its client sends, returning one interval
// profile per completed interval over the wire protocol of internal/wire.
//
// # Session model
//
// One connection is one session attachment (multi-tenancy is many
// concurrent connections). A session owns a shard.Profiler built from the
// client's Hello configuration, two goroutines — a reader decoding frames
// off the socket and a worker feeding the engine and writing profiles back
// — and a bounded queue of decoded batches between them. The worker places
// interval boundaries by event count exactly where the local batched
// driver (core.RunBatchedContext) would, so a remote session's profiles
// are bit-identical to a local hwprof.Profile run over the same stream,
// configuration and seed.
//
// # Admission
//
// Sessions are admitted by estimated engine cost — interval length ×
// shards × table entries, normalized so 1.0 is the default profctl
// session — against a configurable budget, with MaxSessions as a hard
// count backstop. A refused session gets a typed overload error naming the
// costs involved; every refusal is counted by reason in telemetry.
//
// # Backpressure
//
// The queue between reader and worker is bounded. Under the default block
// policy a full queue stops the reader, which stops reading the socket,
// which backpressures the client through TCP — no event is ever lost.
// Under the shed policy the reader watches queue pressure through a
// high/low-watermark hysteresis gate: pressure at or above the high
// watermark engages shedding (whole batches dropped and counted), and
// shedding disengages only once pressure falls to the low watermark, so
// the session does not flap at the boundary. The cumulative shed count
// rides in every Profile frame. Control items (drain, goodbye, failures)
// are never shed, whatever the gate state.
//
// # Failure containment and resume
//
// Failures split in two. Peer bugs — protocol violations, undecodable
// messages, engine failures, contained panics — tear the session down:
// engine drained and discarded, connection closed, failure counted. Stream
// failures — disconnect, frame corruption, I/O timeout — park the session
// instead: the worker finishes the queued batches, the engine and the
// session's exact stream position are retained for a grace period, and a
// client that reconnects with a Resume frame continues bit-identically
// where the stream broke, with recently written profiles resent from a
// bounded ring. A tombstone whose grace expires is discarded and counted.
// Every wire connection reads and writes under per-operation deadlines, so
// a hung peer surfaces as a timeout instead of pinning a goroutine.
//
// # Shutdown
//
// Shutdown stops accepting, then asks every live session to finish the way
// a client Drain would: the worker drains the queued batches into the
// engine, sends the final partial profile and a Goodbye, and closes.
// Parked sessions are discarded — there is no client to drain to. A
// session blocked writing to a stalled client is bounded by the write
// deadline; a context deadline force-closes whatever remains after that.
package server

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hwprof/internal/agg"
	"hwprof/internal/event"
	"hwprof/internal/journal"
	"hwprof/internal/telemetry"
	"hwprof/internal/wire"
)

// Defaults for the server's tuning knobs.
const (
	// DefaultQueueDepth is the per-session queue bound, in batches.
	DefaultQueueDepth = 16
	// DefaultMaxSessions caps concurrent sessions (live plus parked).
	DefaultMaxSessions = 256
	// DefaultMaxShards caps the per-session shard count a client may
	// request; requests beyond it are clamped, not refused.
	DefaultMaxShards = 16
	// DefaultResumeGrace is how long a disconnected session's engine is
	// retained for resumption.
	DefaultResumeGrace = 30 * time.Second
	// DefaultResumeWindow is how many recent interval profiles a session
	// retains (encoded) for resend on resume.
	DefaultResumeWindow = 32
	// DefaultReadTimeout bounds each read off a session socket.
	DefaultReadTimeout = 5 * time.Minute
	// DefaultWriteTimeout bounds each write to a session socket.
	DefaultWriteTimeout = time.Minute
	// DefaultMachineID names this daemon in the epochs it publishes.
	DefaultMachineID = "daemon"
	// DefaultEpochLength is the fleet events-per-epoch contract a
	// publishing daemon assumes when none is configured.
	DefaultEpochLength = 10_000
)

// Config tunes the daemon.
type Config struct {
	// QueueDepth is the per-session batch queue bound; 0 selects
	// DefaultQueueDepth.
	QueueDepth int

	// MaxSessions caps concurrent sessions, live plus parked, as a hard
	// backstop behind the cost budget; further connections are refused
	// with CodeOverload. 0 selects DefaultMaxSessions.
	MaxSessions int

	// MaxShards clamps the shard count a session may request; 0 selects
	// DefaultMaxShards.
	MaxShards int

	// CostBudget is the admission budget in units of the reference session
	// (10k-event intervals, 1 shard, 2048 entries = cost 1.0); sessions
	// whose estimated cost does not fit are refused with CodeOverload.
	// 0 selects DefaultCostBudget.
	CostBudget float64

	// Shed selects the shed backpressure policy: queue pressure at or
	// above the high watermark drops batches (counted and reported to the
	// client) instead of blocking the socket, until pressure falls back to
	// the low watermark.
	Shed bool

	// ShedHighWater is the queue length (in batches) at which shedding
	// engages; 0 derives 3/4 of QueueDepth (at least 1).
	ShedHighWater int

	// ShedLowWater is the queue length at which shedding disengages;
	// 0 derives 1/4 of QueueDepth. Clamped below ShedHighWater.
	ShedLowWater int

	// ResumeGrace is how long a session that lost its connection keeps its
	// engine parked for a client Resume. 0 selects DefaultResumeGrace;
	// negative disables resumption entirely.
	ResumeGrace time.Duration

	// ResumeWindow is how many recent encoded interval profiles each
	// session retains for resend on resume; a client further behind than
	// the window cannot resume. 0 selects DefaultResumeWindow.
	ResumeWindow int

	// ReadTimeout bounds every read from a session socket; a client that
	// stalls mid-frame longer than this is treated as disconnected (and
	// may resume). 0 selects DefaultReadTimeout; negative disables.
	ReadTimeout time.Duration

	// WriteTimeout bounds every write to a session socket; a client that
	// stops reading cannot pin a worker goroutine — or Shutdown — for
	// longer than this. 0 selects DefaultWriteTimeout; negative disables.
	WriteTimeout time.Duration

	// Publish enables the epoch feed: sessions whose interval boundaries
	// align with the fleet epoch contract — marked sessions, or plain ones
	// whose IntervalLength equals EpochLength — have each interval profile
	// merged into a per-epoch machine profile that aggregators subscribe
	// to with MsgSubscribe.
	Publish bool

	// MachineID names this daemon in the epochs it publishes (and, via the
	// aggregation tree, in partial-epoch missing lists). Empty selects
	// DefaultMachineID.
	MachineID string

	// EpochLength is the fleet's events-per-epoch contract; only sessions
	// matching it publish. 0 selects DefaultEpochLength.
	EpochLength uint64

	// EpochDeadline is the straggler deadline before an epoch closes
	// partial; 0 selects the agg default, negative disables. Set it well
	// above the expected reconnect time: a parked session stays a feed
	// member, so a generous deadline lets epochs wait out a resume instead
	// of closing partial.
	EpochDeadline time.Duration

	// EpochWindow bounds open epochs before force-close; 0 selects the agg
	// default.
	EpochWindow int

	// EpochRetain bounds the closed-epoch ring kept for subscribers;
	// 0 selects the agg default.
	EpochRetain int

	// JournalDir enables crash-durable sessions: every accepted session
	// mirrors its accepted batches and interval boundaries into a
	// write-ahead journal under this directory, and a restarted daemon
	// replays the unacked suffix with Recover so a reconnecting client's
	// Resume succeeds across a process kill. Empty disables journaling.
	// Requires resume (ResumeGrace >= 0): recovery re-parks sessions under
	// the resume machinery.
	JournalDir string

	// JournalSync selects the journal durability barrier: SyncNone buffers
	// until rotation, SyncInterval fsyncs at every interval boundary before
	// the profile frame reaches the client, SyncBatch fsyncs every record.
	JournalSync journal.SyncPolicy

	// JournalSegmentBytes is the journal segment rotation threshold;
	// 0 selects the journal default.
	JournalSegmentBytes int64

	// TenantRate limits how fast one tenant (remote host) may open new
	// sessions, in sessions per second; excess Hellos are refused with
	// CodeOverload before cost admission runs. Resume is never rate
	// limited — reattachment is recovery, not new load. 0 disables.
	TenantRate float64

	// TenantBurst is the tenant token-bucket capacity; 0 derives
	// max(1, ceil(TenantRate)).
	TenantBurst float64

	// TenantBudget is the per-tenant slice of the cost budget: one
	// tenant's live sessions (by remote host) share at most this much
	// admitted cost, so a single tenant cannot starve the global budget.
	// Elastic resizes re-price against it before committing. 0 disables
	// per-tenant cost quotas.
	TenantBudget float64

	// Elastic enables the per-session online controller: sessions that
	// are not marked (their clients own the boundaries) are resized live
	// along the degradation ladder when queue pressure or shedding
	// persists, and along the §5.6.1 accuracy axis when it does not.
	// Requires resume (rung 4 parks the session).
	Elastic bool

	// ElasticEngage, ElasticRelease and ElasticSettle override the
	// controller's hysteresis constants (boundaries of persistent signal
	// to act, calm boundaries to de-escalate, cooldown after an action);
	// 0 selects the adaptive package defaults (3, 8, 4).
	ElasticEngage  int
	ElasticRelease int
	ElasticSettle  int

	// Logf receives one line per session lifecycle event; nil disables
	// logging (tests) — use log.Printf for the daemon.
	Logf func(format string, args ...any)
}

// withDefaults fills in the zero knobs.
func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.MaxShards == 0 {
		c.MaxShards = DefaultMaxShards
	}
	if c.CostBudget == 0 {
		c.CostBudget = DefaultCostBudget
	}
	if c.ShedHighWater <= 0 {
		c.ShedHighWater = 3 * c.QueueDepth / 4
	}
	if c.ShedHighWater < 1 {
		c.ShedHighWater = 1
	}
	if c.ShedHighWater > c.QueueDepth {
		c.ShedHighWater = c.QueueDepth
	}
	if c.ShedLowWater <= 0 {
		c.ShedLowWater = c.QueueDepth / 4
	}
	if c.ShedLowWater >= c.ShedHighWater {
		c.ShedLowWater = c.ShedHighWater - 1
	}
	if c.ResumeGrace == 0 {
		c.ResumeGrace = DefaultResumeGrace
	}
	if c.ResumeWindow == 0 {
		c.ResumeWindow = DefaultResumeWindow
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.MachineID == "" {
		c.MachineID = DefaultMachineID
	}
	if c.EpochLength == 0 {
		c.EpochLength = DefaultEpochLength
	}
	if c.TenantRate > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = math.Ceil(c.TenantRate)
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// resumeEnabled reports whether disconnected sessions are parked for
// resumption (after withDefaults, a negative grace means disabled).
func (c Config) resumeEnabled() bool { return c.ResumeGrace > 0 }

// Metrics is the daemon's telemetry surface: every field is registered in
// Registry and exported over the telemetry HTTP endpoint in Prometheus
// text form.
type Metrics struct {
	// Registry holds every metric below, ready to serve.
	Registry *telemetry.Registry

	// SessionsActive is the number of live (attached) sessions.
	SessionsActive *telemetry.Gauge
	// SessionsParked is the number of disconnected sessions whose engines
	// are retained for resumption.
	SessionsParked *telemetry.Gauge
	// SessionsTotal counts sessions ever accepted.
	SessionsTotal *telemetry.Counter
	// SessionErrors counts session attachments ended by a failure
	// (disconnect, corrupt frame, protocol violation, engine failure,
	// panic) — including failures the session was later resumed across.
	SessionErrors *telemetry.Counter
	// CorruptFrames counts frames rejected by checksum or decode.
	CorruptFrames *telemetry.Counter
	// EventsTotal counts profiling events accepted into engines.
	EventsTotal *telemetry.Counter
	// BatchesTotal counts batch frames accepted.
	BatchesTotal *telemetry.Counter
	// EventsShed counts events dropped under the shed policy.
	EventsShed *telemetry.Counter
	// IntervalsTotal counts interval profiles returned to clients.
	IntervalsTotal *telemetry.Counter
	// QueueDepth is the aggregate number of queued batches across
	// sessions — the pressure signal the shed gate watches per session.
	QueueDepth *telemetry.Gauge
	// IntervalLatency observes the seconds from an interval boundary
	// being crossed to its profile frame being written.
	IntervalLatency *telemetry.Histogram

	// AdmissionRefusedCost counts sessions refused because their estimated
	// cost exceeded the remaining budget.
	AdmissionRefusedCost *telemetry.Counter
	// AdmissionRefusedLimit counts sessions refused by the MaxSessions
	// backstop or because the server was draining.
	AdmissionRefusedLimit *telemetry.Counter
	// AdmissionRefusedRate counts sessions refused by the per-tenant rate
	// limit.
	AdmissionRefusedRate *telemetry.Counter
	// AdmissionCostUsed is the admitted engine cost, in milli-units of the
	// reference session.
	AdmissionCostUsed *telemetry.Gauge
	// AdmissionCostBudget is the configured budget, in the same
	// milli-units.
	AdmissionCostBudget *telemetry.Gauge

	// ShedEngaged counts shed-gate on-transitions (pressure reached the
	// high watermark).
	ShedEngaged *telemetry.Counter
	// ShedDisengaged counts shed-gate off-transitions (pressure fell to
	// the low watermark).
	ShedDisengaged *telemetry.Counter
	// ShedSessions is the number of sessions currently shedding.
	ShedSessions *telemetry.Gauge

	// ResumesTotal counts successful session resumptions.
	ResumesTotal *telemetry.Counter
	// ResumeFailures counts refused Resume attempts (unknown session,
	// window exceeded, invalid position).
	ResumeFailures *telemetry.Counter
	// TombstonesExpired counts parked sessions discarded because no client
	// resumed them within the grace period.
	TombstonesExpired *telemetry.Counter

	// EpochsTotal counts published machine epochs closed.
	EpochsTotal *telemetry.Counter
	// EpochsPartial counts machine epochs closed partial (a publishing
	// session was lost mid-epoch).
	EpochsPartial *telemetry.Counter
	// EpochWatermark is the number of machine epochs closed.
	EpochWatermark *telemetry.Gauge
	// SubscribersActive is the number of attached epoch subscribers.
	SubscribersActive *telemetry.Gauge
	// SessionEpochs counts epochs reported into the feed, per publishing
	// session.
	SessionEpochs *telemetry.CounterVec

	// JournalBytes counts bytes appended to session journals.
	JournalBytes *telemetry.Counter
	// JournalFsyncs counts journal durability barriers (fsync calls).
	JournalFsyncs *telemetry.Counter
	// JournalRecovered counts sessions replayed from journals and re-parked
	// for resume after a daemon restart.
	JournalRecovered *telemetry.Counter
	// JournalTornTruncations counts journal segments whose torn tail was
	// truncated at the last valid CRC during recovery.
	JournalTornTruncations *telemetry.Counter
	// JournalRecoverFailures counts journals that could not be recovered
	// (unreplayable config, replay divergence, admission refusal).
	JournalRecoverFailures *telemetry.Counter

	// ElasticResizes counts committed engine resizes (geometry changes).
	ElasticResizes *telemetry.Counter
	// ElasticRefused counts elastic actions abandoned because the
	// re-price against the cost budget (global or tenant) was refused.
	ElasticRefused *telemetry.Counter
	// ElasticActions counts committed controller actions by operation
	// (coarsen, shrink-tables, grow-shards, park, restore, ...).
	ElasticActions *telemetry.CounterVec
	// LadderRung is the number of sessions currently at each
	// degradation-ladder rung (0 = full service ... 4 = parked by the
	// controller).
	LadderRung *telemetry.GaugeVec

	// TenantSessions is the number of live sessions per tenant.
	TenantSessions *telemetry.GaugeVec
	// TenantCostUsed is the admitted engine cost per tenant, in
	// milli-units of the reference session.
	TenantCostUsed *telemetry.GaugeVec
	// TenantRefused counts refused session admissions per tenant (rate,
	// cost, or limit — any reason).
	TenantRefused *telemetry.CounterVec
	// TenantEventsShed counts events dropped under the shed policy, per
	// tenant.
	TenantEventsShed *telemetry.CounterVec
	// TenantShedEngaged counts shed-gate on-transitions per tenant.
	TenantShedEngaged *telemetry.CounterVec
	// TenantJournalBytes counts journal bytes appended per tenant.
	TenantJournalBytes *telemetry.CounterVec
	// TenantResizes counts committed elastic resizes per tenant.
	TenantResizes *telemetry.CounterVec
	// TenantDegraded is the number of sessions per tenant currently above
	// rung 0 on the degradation ladder.
	TenantDegraded *telemetry.GaugeVec
}

// newMetrics registers the daemon's metrics in a fresh registry.
func newMetrics() *Metrics {
	r := telemetry.NewRegistry()
	return &Metrics{
		Registry:       r,
		SessionsActive: r.Gauge("hwprof_sessions_active", "Live profiling sessions."),
		SessionsParked: r.Gauge("hwprof_sessions_parked", "Disconnected sessions retained for resume."),
		SessionsTotal:  r.Counter("hwprof_sessions_total", "Sessions accepted since start."),
		SessionErrors:  r.Counter("hwprof_session_errors_total", "Session attachments ended by a failure."),
		CorruptFrames:  r.Counter("hwprof_frames_corrupt_total", "Frames rejected by checksum or decode."),
		EventsTotal:    r.Counter("hwprof_events_total", "Profiling events accepted into engines."),
		BatchesTotal:   r.Counter("hwprof_batches_total", "Batch frames accepted."),
		EventsShed:     r.Counter("hwprof_events_shed_total", "Events dropped under the shed backpressure policy."),
		IntervalsTotal: r.Counter("hwprof_intervals_total", "Interval profiles returned to clients."),
		QueueDepth:     r.Gauge("hwprof_queue_depth", "Queued batches across all sessions."),
		IntervalLatency: r.Histogram("hwprof_interval_latency_seconds",
			"Seconds from interval boundary to profile frame written.",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}),
		AdmissionRefusedCost:  r.Counter("hwprof_admission_refused_cost_total", "Sessions refused: estimated cost over budget."),
		AdmissionRefusedLimit: r.Counter("hwprof_admission_refused_limit_total", "Sessions refused: session limit or draining."),
		AdmissionRefusedRate:  r.Counter("hwprof_admission_refused_rate_total", "Sessions refused: per-tenant rate limit."),
		AdmissionCostUsed:     r.Gauge("hwprof_admission_cost_used_milli", "Admitted engine cost, milli-units of the reference session."),
		AdmissionCostBudget:   r.Gauge("hwprof_admission_cost_budget_milli", "Configured admission budget, milli-units."),
		ShedEngaged:           r.Counter("hwprof_shed_engaged_total", "Shed-gate on-transitions (high watermark reached)."),
		ShedDisengaged:        r.Counter("hwprof_shed_disengaged_total", "Shed-gate off-transitions (low watermark reached)."),
		ShedSessions:          r.Gauge("hwprof_shed_sessions", "Sessions currently shedding."),
		ResumesTotal:          r.Counter("hwprof_resumes_total", "Successful session resumptions."),
		ResumeFailures:        r.Counter("hwprof_resume_failures_total", "Refused resume attempts."),
		TombstonesExpired:     r.Counter("hwprof_tombstones_expired_total", "Parked sessions discarded after the grace period."),
		EpochsTotal:           r.Counter("hwprof_epochs_total", "Published machine epochs closed."),
		EpochsPartial:         r.Counter("hwprof_epochs_partial_total", "Machine epochs closed partial (publisher lost mid-epoch)."),
		EpochWatermark:        r.Gauge("hwprof_epoch_watermark", "Machine epochs closed so far."),
		SubscribersActive:     r.Gauge("hwprof_subscribers_active", "Attached epoch subscribers."),
		SessionEpochs:         r.CounterVec("hwprof_session_epochs_total", "Epochs reported into the feed, per publishing session.", "session"),

		JournalBytes:           r.Counter("hwprof_journal_bytes_total", "Bytes appended to session journals."),
		JournalFsyncs:          r.Counter("hwprof_journal_fsyncs_total", "Journal durability barriers (fsync calls)."),
		JournalRecovered:       r.Counter("hwprof_journal_recovered_sessions_total", "Sessions replayed from journals after a restart."),
		JournalTornTruncations: r.Counter("hwprof_journal_torn_truncations_total", "Journal segments truncated at the last valid CRC."),
		JournalRecoverFailures: r.Counter("hwprof_journal_recover_failures_total", "Journals that could not be recovered."),

		ElasticResizes: r.Counter("hwprof_elastic_resizes_total", "Committed live engine resizes."),
		ElasticRefused: r.Counter("hwprof_elastic_refused_total", "Elastic actions refused by the cost budget re-price."),
		ElasticActions: r.CounterVec("hwprof_elastic_actions_total", "Committed elastic controller actions, by operation.", "op"),
		LadderRung:     r.GaugeVec("hwprof_ladder_rung_sessions", "Sessions at each degradation-ladder rung.", "rung"),

		TenantSessions:     r.GaugeVec("hwprof_tenant_sessions", "Live sessions per tenant.", "tenant"),
		TenantCostUsed:     r.GaugeVec("hwprof_tenant_cost_used_milli", "Admitted engine cost per tenant, milli-units.", "tenant"),
		TenantRefused:      r.CounterVec("hwprof_tenant_admission_refused_total", "Refused session admissions per tenant.", "tenant"),
		TenantEventsShed:   r.CounterVec("hwprof_tenant_events_shed_total", "Events shed per tenant.", "tenant"),
		TenantShedEngaged:  r.CounterVec("hwprof_tenant_shed_engaged_total", "Shed-gate engagements per tenant.", "tenant"),
		TenantJournalBytes: r.CounterVec("hwprof_tenant_journal_bytes_total", "Journal bytes appended per tenant.", "tenant"),
		TenantResizes:      r.CounterVec("hwprof_tenant_resizes_total", "Committed elastic resizes per tenant.", "tenant"),
		TenantDegraded:     r.GaugeVec("hwprof_tenant_degraded_sessions", "Sessions above rung 0 per tenant.", "tenant"),
	}
}

// Server is the profiling daemon.
type Server struct {
	cfg       Config
	metrics   *Metrics
	admission *admission
	feed      *agg.Feed       // per-epoch profile feed; nil unless Publish
	batchPool sync.Pool       // *[]event.Tuple, shared decode buffers
	journal   journal.Options // per-session journal options; Dir empty unless journaling
	limiter   *rateLimiter    // per-tenant admission rate limit; nil unless TenantRate

	listener wire.Listener // accept loop and connection tracking

	mu       sync.Mutex
	sessions map[uint64]*session // attached sessions
	tombs    map[uint64]*session // parked sessions awaiting resume
	nextID   uint64
	draining atomic.Bool // set first by Shutdown and Kill; read under mu to register
}

// New builds a daemon from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	s := &Server{
		cfg:       cfg,
		metrics:   m,
		admission: newAdmission(cfg.CostBudget, cfg.TenantBudget, m),
		sessions:  make(map[uint64]*session),
		tombs:     make(map[uint64]*session),
	}
	s.metrics.AdmissionCostBudget.Set(milli(cfg.CostBudget))
	s.batchPool.New = func() any {
		buf := make([]event.Tuple, 0, event.DefaultBatchSize)
		return &buf
	}
	if cfg.JournalDir != "" {
		s.journal = journal.Options{
			Dir:          cfg.JournalDir,
			Sync:         cfg.JournalSync,
			SegmentBytes: cfg.JournalSegmentBytes,
			OnAppend:     func(n int64) { m.JournalBytes.Add(uint64(n)) },
			OnSync:       func() { m.JournalFsyncs.Inc() },
		}
	}
	if cfg.TenantRate > 0 {
		s.limiter = newRateLimiter(cfg.TenantRate, cfg.TenantBurst, nil)
	}
	if cfg.Publish {
		s.feed = agg.NewFeed(agg.FeedConfig{
			Source:      cfg.MachineID,
			EpochLength: cfg.EpochLength,
			Window:      cfg.EpochWindow,
			Deadline:    cfg.EpochDeadline,
			Retain:      cfg.EpochRetain,
			Logf:        cfg.Logf,
			OnEpoch: func(ep agg.Epoch) {
				m.EpochsTotal.Inc()
				if ep.Partial {
					m.EpochsPartial.Inc()
				}
				m.EpochWatermark.Set(int64(ep.Epoch + 1))
			},
			OnReport: func(member string, _, _ uint64) { m.SessionEpochs.With(member).Inc() },
		})
	}
	return s
}

// Metrics returns the daemon's telemetry surface.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Feed returns the daemon's epoch feed, nil unless publishing is enabled.
func (s *Server) Feed() *agg.Feed { return s.feed }

// Serve accepts sessions on ln until the listener is closed (by Shutdown).
// It returns nil after a clean Shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	return s.listener.Serve(ln, s.handleConn)
}

// wireConn frames conn with the daemon's per-operation deadlines.
func (s *Server) wireConn(conn net.Conn) *wire.Conn {
	return wire.NewConn(wire.WithDeadlines(conn, s.cfg.ReadTimeout, s.cfg.WriteTimeout))
}

// handleConn owns one accepted connection: handshake, then dispatch on the
// opening frame — Hello opens a session, Resume reattaches a parked one.
// The goroutine lives for the whole attachment.
func (s *Server) handleConn(conn net.Conn) {
	wc := s.wireConn(conn)
	if err := wc.ServerHandshake(); err != nil {
		s.logf("conn %s: handshake: %v", conn.RemoteAddr(), err)
		return
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		s.logf("conn %s: reading opening frame: %v", conn.RemoteAddr(), err)
		return
	}
	switch typ {
	case wire.MsgHello:
		s.openSession(conn, wc, payload)
	case wire.MsgResume:
		s.resumeSession(conn, wc, payload)
	case wire.MsgSubscribe:
		s.serveSubscriber(conn, wc, payload)
	default:
		wc.WriteFrame(wire.MsgError, wire.AppendError(nil,
			wire.ErrorMsg{Code: wire.CodeProtocol, Msg: fmt.Sprintf("expected hello, resume or subscribe, got frame type %d", typ)}))
	}
}

// serveSubscriber answers a MsgSubscribe connection with the daemon's epoch
// stream. The goroutine lives for the whole subscription.
func (s *Server) serveSubscriber(conn net.Conn, wc *wire.Conn, payload []byte) {
	if s.feed == nil {
		s.refuseConn(conn, wc, wire.CodeUnsupported, "epoch publishing disabled on this server")
		return
	}
	if s.draining.Load() {
		s.refuseConn(conn, wc, wire.CodeOverload, "server draining")
		return
	}
	s.metrics.SubscribersActive.Add(1)
	defer s.metrics.SubscribersActive.Add(-1)
	if err := agg.ServeSubscription(conn, wc, s.feed, payload, s.cfg.Logf); err != nil {
		s.logf("subscriber %s: %v", conn.RemoteAddr(), err)
	}
}

// refuseConn answers a connection the server will not serve with one typed
// error frame, then closes it.
func (s *Server) refuseConn(conn net.Conn, wc *wire.Conn, code byte, msg string) {
	s.logf("conn %s: refused (code %d): %s", conn.RemoteAddr(), code, msg)
	wc.WriteFrame(wire.MsgError, wire.AppendError(nil, wire.ErrorMsg{Code: code, Msg: msg}))
	conn.Close()
}

// removeSession unregisters a finished session and releases its admission
// cost and engine.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.release()
	s.metrics.SessionsActive.Add(-1)
}

// entomb parks sess as a tombstone with a fresh grace timer: engine and
// stream position retained for a resume. live says sess is leaving the
// live set because its attachment's connection failed — that connection is
// closed and the failure counted — rather than coming back from a refused
// resume or a replayed journal. During a drain there is no one to resume
// for, so the session is released instead; entomb reports whether it
// parked. A live session leaves sessions in the same critical section in
// which it enters tombs, so a racing resume finds it in one map or the
// other.
//
// Publishing the tombstone hands the session to whichever resume adopts
// it, so nothing here touches the session after the insert.
func (s *Server) entomb(sess *session, live bool) bool {
	id, interval, events, pos := sess.id, sess.interval, sess.events, sess.streamPos.Load()
	if live {
		sess.conn.Close()
		s.metrics.SessionErrors.Inc()
		s.metrics.SessionsActive.Add(-1)
	}
	s.mu.Lock()
	if live {
		delete(s.sessions, id)
	}
	if s.draining.Load() {
		s.mu.Unlock()
		sess.release()
		return false
	}
	sess.parkEpoch++
	epoch := sess.parkEpoch
	s.tombs[id] = sess
	s.mu.Unlock()
	s.metrics.SessionsParked.Add(1)
	s.logf("session %d: parked at interval %d+%d events (stream pos %d), grace %v",
		id, interval, events, pos, s.cfg.ResumeGrace)
	time.AfterFunc(s.cfg.ResumeGrace, func() { s.expireTombstone(id, epoch) })
	return true
}

// expireTombstone discards a parked session whose grace period lapsed
// without a resume. The epoch guards against a timer from an earlier park
// of the same (since resumed and re-parked) session.
func (s *Server) expireTombstone(id uint64, epoch int) {
	s.mu.Lock()
	sess := s.tombs[id]
	if sess == nil || sess.parkEpoch != epoch {
		s.mu.Unlock()
		return
	}
	delete(s.tombs, id)
	s.mu.Unlock()
	sess.release()
	s.metrics.SessionsParked.Add(-1)
	s.metrics.TombstonesExpired.Inc()
	s.logf("session %d: tombstone expired, engine discarded", id)
}

// closeTombstones discards every parked session (shutdown path).
func (s *Server) closeTombstones() {
	s.mu.Lock()
	tombs := make([]*session, 0, len(s.tombs))
	for id, sess := range s.tombs {
		tombs = append(tombs, sess)
		delete(s.tombs, id)
	}
	s.mu.Unlock()
	for _, sess := range tombs {
		sess.release()
		s.metrics.SessionsParked.Add(-1)
	}
}

// Shutdown drains the daemon gracefully: it stops accepting, asks every
// attached session to finish as a client Drain would (queued batches
// processed, final partial profile and Goodbye sent), discards parked
// sessions, and waits. A worker blocked writing to a stalled client is
// bounded by the write deadline; when ctx expires first, remaining
// connections are force-closed and ctx.Err() returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.listener.Close()
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, sess := range live {
		sess.beginDrain()
	}
	s.closeTombstones()
	if s.feed != nil {
		// Ending the feed ends every epoch subscription, which Wait covers.
		// Epochs a draining session would still have reported are dropped —
		// this daemon is leaving the fleet; its aggregator will close those
		// epochs partial, naming it missing.
		s.feed.Close()
	}
	err := s.listener.Wait(ctx)
	s.closeTombstones() // a session may have parked while we drained
	return err
}

// journaling reports whether session journaling is enabled.
func (s *Server) journaling() bool { return s.journal.Dir != "" }

// Kill terminates the daemon the way kill -9 would, for crash-recovery
// tests that must run in-process (under -race, sharing a heap with the
// asserting test). Nothing is drained or flushed: session journals are
// abandoned first — process-memory buffers destroyed, bytes already
// written left on disk, exactly the state a killed process leaves — then
// the listener and every connection die. Engines and feed are still torn
// down afterwards so the test process does not leak goroutines; a real
// crash gets that for free.
func (s *Server) Kill() {
	s.draining.Store(true)
	s.mu.Lock()
	all := make([]*session, 0, len(s.sessions)+len(s.tombs))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	for id, sess := range s.tombs {
		all = append(all, sess)
		delete(s.tombs, id)
	}
	s.mu.Unlock()
	for _, sess := range all {
		if sess.jw != nil {
			sess.jw.Abandon()
		}
	}
	s.listener.Close()
	s.listener.CloseConns()
	if s.feed != nil {
		s.feed.Close()
	}
	s.listener.Wait(context.Background())
	// Free surviving engines (the crashed process's memory); their journals
	// are dead already, so release keeps the on-disk state intact.
	for _, sess := range all {
		sess.release()
	}
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }
