// Package client implements the remote-profiling client: it dials a
// profiled daemon, opens a session for a profiler configuration, streams
// event batches over the wire protocol, and delivers the interval profiles
// the daemon returns.
//
// A Session runs one background goroutine that reads server frames and
// feeds the Profiles channel; the caller's goroutine writes. Run is the
// high-level driver — stream a whole Source, invoke a callback per interval
// profile, drain — and mirrors hwprof.Profile closely enough that, on a
// block-policy server, the two produce bit-identical profiles for the same
// configuration, seed and stream.
//
// # Reconnect and resume
//
// With Options.Reconnect on (and a daemon that retains disconnected
// sessions), a Session survives its connection: every flushed event is
// retained in a replay buffer until an interval profile proves the daemon
// consumed it, and when the stream breaks — disconnect, timeout, frame
// corruption on either side — the session redials under jittered
// exponential backoff, sends a Resume naming its session and position,
// replays exactly the events past the daemon's acknowledged stream
// position, and continues. Profiles the daemon resends are deduplicated by
// index, so the caller observes each interval exactly once and the
// delivered sequence is bit-identical to an uninterrupted run. Failures
// that reflect a bug rather than a broken stream — protocol violations,
// refused or unknown sessions, daemon-internal errors — are terminal.
package client

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// ErrSessionClosed is returned by operations on a session that was already
// closed or drained.
var ErrSessionClosed = errors.New("client: session is closed")

// Reconnect defaults.
const (
	// DefaultBackoffBase is the first reconnect delay.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultBackoffMax caps the exponential reconnect delay.
	DefaultBackoffMax = 2 * time.Second
	// DefaultMaxAttempts bounds reconnect attempts per outage.
	DefaultMaxAttempts = 10
)

// Options tunes a session.
type Options struct {
	// Shards is the shard count the daemon should run for this session;
	// 0 or 1 means sequential. Daemons may clamp it.
	Shards int

	// BatchSize is the number of tuples per batch frame; 0 selects
	// event.DefaultBatchSize.
	BatchSize int

	// DialTimeout bounds the TCP connect; 0 means 10 seconds.
	DialTimeout time.Duration

	// Reconnect makes the session survive stream failures: flushed events
	// are buffered until a profile acknowledges them, and a broken
	// connection is redialed and resumed transparently. Takes effect only
	// when the daemon advertises resume support in its HelloAck.
	Reconnect bool

	// BackoffBase is the first reconnect delay; it doubles per failed
	// attempt (with jitter: each sleep is uniform in [delay/2, delay]).
	// 0 selects DefaultBackoffBase.
	BackoffBase time.Duration

	// BackoffMax caps the reconnect delay. 0 selects DefaultBackoffMax.
	BackoffMax time.Duration

	// MaxAttempts bounds consecutive failed reconnect attempts before the
	// session reports a terminal error. 0 selects DefaultMaxAttempts;
	// negative means unlimited.
	MaxAttempts int

	// ReadTimeout bounds every read from the daemon; 0 disables. Leave
	// disabled unless the event stream is steady: a profile only arrives
	// per completed interval, so a slow source can legitimately keep the
	// read side quiet for a long time. With Reconnect on, a timeout
	// triggers a resume rather than a terminal error.
	ReadTimeout time.Duration

	// WriteTimeout bounds every write to the daemon; 0 disables. A
	// block-policy daemon backpressures through TCP, so a stalled write
	// may just mean a busy engine; with Reconnect on, a timeout triggers
	// a resume.
	WriteTimeout time.Duration

	// Dialer overrides the TCP dial — reconnects included — e.g. to wrap
	// connections for fault injection. Nil uses net.DialTimeout.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)

	// Marked opens a marked session: the client places every interval
	// boundary itself by calling Session.Mark, and the daemon stops
	// clipping the stream by IntervalLength. A coordinator that owns a
	// fleet-wide union stream uses marks to align every member session's
	// interval — and therefore epoch — boundaries with the union's.
	Marked bool
}

// withDefaults fills in the zero reconnect knobs.
func (o Options) withDefaults() Options {
	if o.BackoffBase == 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	return o
}

// Notice is one elastic-serving announcement from the daemon: a live
// resize, a degradation-ladder move, or an imminent park. It is an
// absolute snapshot of the session's geometry from interval Index+1
// on; the session applies it to its own position arithmetic before
// surfacing it, so a caller may ignore notices entirely.
type Notice struct {
	// Kind classifies the announcement (NoticeResize, NoticeDegrade,
	// NoticePark).
	Kind byte

	// Rung is the daemon's degradation-ladder rung now in effect for this
	// session (0 = full service).
	Rung int

	// Index is the last interval completed under the previous geometry;
	// the geometry below is in force from interval Index+1.
	Index uint64

	// Observed and Shed are the daemon's cumulative observed and shed
	// event counts through that boundary.
	Observed uint64
	Shed     uint64

	// IntervalLength, TotalEntries, NumTables and Shards are the session's
	// full geometry from interval Index+1 on.
	IntervalLength uint64
	TotalEntries   int
	NumTables      int
	Shards         int

	// Reason is the daemon's explanation — the controller's arithmetic or
	// the pressure signal that tripped the ladder.
	Reason string
}

// Notice kinds, re-exported from the wire protocol.
const (
	NoticeResize  = wire.NoticeResize
	NoticeDegrade = wire.NoticeDegrade
	NoticePark    = wire.NoticePark
)

// maxNoticeTrail bounds the retained notice history; resizes are rare
// (hysteresis-gated, one per several intervals at most), so a session that
// hits the cap has a misbehaving server.
const maxNoticeTrail = 4096

// Profile is one interval profile as delivered by the daemon.
type Profile struct {
	// Index is the interval index within the session, from 0.
	Index uint64

	// Shed is the cumulative count of events the daemon dropped under its
	// shed backpressure policy; 0 on a block-policy daemon.
	Shed uint64

	// Final marks the drain reply: the unfinished interval's partial
	// profile.
	Final bool

	// Counts is the profile: captured count per tuple.
	Counts map[event.Tuple]uint64
}

// permanentErr marks a failure that must not be retried by reconnecting.
type permanentErr struct{ err error }

func (e permanentErr) Error() string { return e.err.Error() }
func (e permanentErr) Unwrap() error { return e.err }

// errGoodbye is readFrames's clean-end sentinel; it never escapes the
// reader.
var errGoodbye = errors.New("goodbye")

// Session is one open profiling session with a daemon.
type Session struct {
	addr string
	cfg  core.Config
	opts Options
	ack  wire.HelloAck

	batchSize int
	pending   []event.Tuple
	enc       []byte

	profiles chan Profile

	// nextIdx is the next complete-interval profile index the caller has
	// not yet seen; resent profiles below it are dropped.
	nextIdx atomic.Uint64
	// lastShed is the daemon's cumulative shed count, as last reported.
	lastShed atomic.Uint64
	// reconnects counts successful resumes.
	reconnects atomic.Uint64
	// rung is the degradation-ladder rung last announced by the daemon.
	rung atomic.Int32
	// resizes counts notices (and resume acks) that changed the session's
	// geometry; noticeDrops counts notices the Notices channel could not
	// hold (they are still applied and recorded in the trail).
	resizes     atomic.Uint64
	noticeDrops atomic.Uint64

	// notices surfaces elastic-serving announcements to the caller;
	// delivery is best-effort (non-blocking), the trail is complete.
	notices chan Notice

	closedFlag atomic.Bool
	closeCh    chan struct{} // closed by Close: aborts reconnect sleeps

	mu         sync.Mutex
	conn       net.Conn
	wc         *wire.Conn
	gen        uint64 // attachment generation; bumped per successful resume
	replayOn   bool   // Reconnect requested and daemon advertises resume
	replay     []event.Tuple
	replayBase uint64 // absolute stream position of replay[0]
	sentPos    uint64 // absolute stream position after everything flushed
	markIdx    uint64 // next interval-mark index (marked sessions)
	marks      []markRec
	drainSent  bool
	goodbye    bool
	permErr    error // terminal session error
	readErr    error // reader's terminal error (when not permErr)

	// Elastic anchor: a complete profile i ≥ baseIdx proves the daemon
	// consumed obsBase + (i+1−baseIdx)·curLen observed events. With no
	// resize the anchor stays at (cfg.IntervalLength, 0, 0) and the
	// arithmetic reduces to the fixed-length (i+1)·L form. Notices and
	// resume acks move it. curEntries/curTables/curShards complete the
	// geometry snapshot so the Resizes counter catches changes on any axis.
	curLen     uint64
	baseIdx    uint64
	obsBase    uint64
	curEntries int
	curTables  int
	curShards  int

	// noticeTrail is every notice received, in order (capped at
	// maxNoticeTrail); the authoritative record for drivers that verify
	// profiles against the announced geometry timeline.
	noticeTrail []Notice
}

// markRec is one unacknowledged interval mark on a marked session: its
// index and the absolute stream position it was sent at. Retained —
// exactly like the event replay buffer — until a profile proves the daemon
// consumed it, so a resume can replay marks interleaved with events at
// their exact positions and boundary placement survives the outage.
type markRec struct {
	index uint64
	pos   uint64
}

// Dial connects to a daemon at addr (TCP host:port), opens a session for
// cfg, and returns it once the daemon has acknowledged. The configuration
// is validated locally first, so most mistakes fail before touching the
// network.
func Dial(addr string, cfg core.Config, opts Options) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	opts = opts.withDefaults()
	conn, err := dial(addr, opts)
	if err != nil {
		return nil, err
	}
	s, err := open(addr, conn, cfg, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// dial makes one TCP connect with the configured timeout.
func dial(addr string, opts Options) (net.Conn, error) {
	timeout := opts.DialTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	dialer := opts.Dialer
	if dialer == nil {
		dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dialer(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return conn, nil
}

// frame wraps conn for wire exchange under the configured deadlines.
func frame(conn net.Conn, opts Options) *wire.Conn {
	return wire.NewConn(wire.WithDeadlines(conn, opts.ReadTimeout, opts.WriteTimeout))
}

// open performs the handshake and Hello/HelloAck exchange over conn and
// starts the session's reader.
func open(addr string, conn net.Conn, cfg core.Config, opts Options) (*Session, error) {
	wc := frame(conn, opts)
	if err := wc.ClientHandshake(); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	hello := wire.Hello{Config: cfg, Shards: opts.Shards, Marked: opts.Marked}
	if err := wc.WriteFrame(wire.MsgHello, wire.AppendHello(nil, hello)); err != nil {
		return nil, fmt.Errorf("client: sending hello: %w", err)
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		return nil, fmt.Errorf("client: waiting for hello-ack: %w", err)
	}
	switch typ {
	case wire.MsgHelloAck:
	case wire.MsgError:
		if e, derr := wire.DecodeError(payload); derr == nil {
			return nil, fmt.Errorf("client: session refused: %w", e)
		}
		return nil, fmt.Errorf("client: session refused with undecodable error")
	default:
		return nil, fmt.Errorf("%w: expected hello-ack, got frame type %d", wire.ErrProtocol, typ)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = event.DefaultBatchSize
	}
	s := &Session{
		addr:       addr,
		cfg:        cfg,
		opts:       opts,
		ack:        ack,
		batchSize:  batchSize,
		pending:    make([]event.Tuple, 0, batchSize),
		profiles:   make(chan Profile, 64),
		notices:    make(chan Notice, 64),
		closeCh:    make(chan struct{}),
		conn:       conn,
		wc:         wc,
		replayOn:   opts.Reconnect && ack.Resume,
		curLen:     cfg.IntervalLength,
		curEntries: cfg.TotalEntries,
		curTables:  cfg.NumTables,
		curShards:  max(opts.Shards, 1),
	}
	go s.readLoop()
	return s, nil
}

// ID returns the daemon-assigned session id.
func (s *Session) ID() uint64 { return s.ack.SessionID }

// Shedding reports whether the daemon applies the shed backpressure policy
// to this session; a shedding session's profiles are lossy and carry the
// cumulative Shed count.
func (s *Session) Shedding() bool { return s.ack.Shed }

// Resumable reports whether this session survives stream failures:
// Reconnect was requested and the daemon advertises resume support.
func (s *Session) Resumable() bool { return s.replayOn }

// ShedEvents returns the daemon's cumulative shed count for this session,
// as last reported in a profile or resume ack.
func (s *Session) ShedEvents() uint64 { return s.lastShed.Load() }

// Reconnects returns how many times the session has successfully resumed
// after a stream failure.
func (s *Session) Reconnects() uint64 { return s.reconnects.Load() }

// Rung returns the daemon's degradation-ladder rung for this session as
// last announced (0 = full service; see the server's ladder).
func (s *Session) Rung() int { return int(s.rung.Load()) }

// Resizes returns how many geometry changes the daemon has announced for
// this session, via notices or resume acks.
func (s *Session) Resizes() uint64 { return s.resizes.Load() }

// Notices returns the channel of elastic-serving announcements. Delivery
// is best-effort: a notice nobody is reading is dropped from the channel
// (but still applied to the session and recorded in NoticeTrail), so an
// uninterested caller pays nothing.
func (s *Session) Notices() <-chan Notice { return s.notices }

// NoticeTrail returns a copy of every notice received so far, in arrival
// order — the geometry timeline a driver needs to verify profiles against
// a resizing daemon.
func (s *Session) NoticeTrail() []Notice {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Notice(nil), s.noticeTrail...)
}

// Profiles returns the channel of interval profiles, delivered in interval
// order as the daemon completes them. The channel closes when the session
// ends — after the final (drain) profile and goodbye, or on failure (see
// Err). Consume it promptly: an unread channel eventually backpressures
// the daemon and, through it, the stream.
func (s *Session) Profiles() <-chan Profile { return s.profiles }

// Err returns the session's terminal error, if any: a failed write, a
// server-reported error, an exhausted reconnect, or a broken stream. A
// session that ended with a clean goodbye reports nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.permErr != nil {
		return s.permErr
	}
	return s.readErr
}

// retryable reports whether err is a stream failure a resumable session
// should reconnect across: disconnects, timeouts, truncation, corruption.
// Permanent classifications and protocol violations are not.
func retryable(err error) bool {
	var perm permanentErr
	if errors.As(err, &perm) {
		return false
	}
	if errors.Is(err, wire.ErrProtocol) {
		return false
	}
	return true
}

// readLoop is the session's reader goroutine: it decodes server frames
// into the Profiles channel, reconnecting across stream failures when the
// session is resumable, until goodbye, terminal error, or Close.
func (s *Session) readLoop() {
	defer close(s.profiles)
	// Notices are only ever sent by this goroutine, so closing here is safe.
	defer close(s.notices)
	for {
		s.mu.Lock()
		wc, gen := s.wc, s.gen
		perm := s.permErr
		s.mu.Unlock()
		if perm != nil {
			return
		}
		err := s.readFrames(wc)
		if err == errGoodbye {
			return
		}
		if s.closedFlag.Load() {
			s.failRead(ErrSessionClosed)
			return
		}
		if s.replayOn && retryable(err) {
			if rerr := s.reconnect(gen, err); rerr != nil {
				s.failRead(rerr)
				return
			}
			continue
		}
		s.failRead(fmt.Errorf("client: %w", err))
		return
	}
}

// readFrames consumes frames off one attachment until goodbye (errGoodbye)
// or a failure for the caller to classify.
func (s *Session) readFrames(wc *wire.Conn) error {
	for {
		typ, payload, err := wc.ReadFrame()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("daemon closed the stream: %w", io.ErrUnexpectedEOF)
			}
			return fmt.Errorf("reading: %w", err)
		}
		switch typ {
		case wire.MsgProfile:
			m, derr := wire.DecodeProfile(payload)
			if derr != nil {
				return derr // wraps ErrCorrupt: resumable transport damage
			}
			if p, deliver := s.admitProfile(m); deliver {
				s.profiles <- p
			}
		case wire.MsgNotice:
			n, derr := wire.DecodeNotice(payload)
			if derr != nil {
				return derr // wraps ErrCorrupt: resumable transport damage
			}
			s.applyNotice(n)
		case wire.MsgGoodbye:
			s.mu.Lock()
			s.goodbye = true
			s.mu.Unlock()
			return errGoodbye
		case wire.MsgError:
			e, derr := wire.DecodeError(payload)
			if derr != nil {
				return fmt.Errorf("undecodable error frame: %w", derr)
			}
			if e.Code == wire.CodeCorrupt {
				// The daemon saw transport corruption and parked the
				// session; reconnect and resume.
				return fmt.Errorf("daemon reported corruption: %w", e)
			}
			return permanentErr{err: e}
		default:
			return permanentErr{err: fmt.Errorf("%w: unexpected frame type %d", wire.ErrProtocol, typ)}
		}
	}
}

// admitProfile deduplicates and accounts one profile frame: resends below
// the expected index are dropped, the replay buffer is pruned by what the
// profile proves the daemon consumed, and the shed count is published.
func (s *Session) admitProfile(m wire.ProfileMsg) (Profile, bool) {
	s.lastShed.Store(m.Shed)
	p := Profile{Index: m.Index, Shed: m.Shed, Final: m.Final, Counts: m.Counts}
	if m.Final {
		return p, true
	}
	next := s.nextIdx.Load()
	if m.Index < next {
		return Profile{}, false // duplicate resend after a resume
	}
	s.nextIdx.Store(m.Index + 1)
	if s.opts.Marked {
		// On a marked session interval m.Index ended at mark m.Index's
		// stream position — the boundary the client placed, not an
		// IntervalLength multiple.
		s.pruneMarked(m.Index)
	} else {
		// Interval m.Index complete means the daemon consumed at least the
		// interval's closing observed position plus everything it shed. The
		// elastic anchor generalizes the fixed-length (Index+1)·L arithmetic
		// across resizes; profiles resent from before the anchor skip
		// pruning (under-pruning is always safe).
		s.mu.Lock()
		if m.Index+1 > s.baseIdx {
			s.pruneLocked(s.obsBase + (m.Index+1-s.baseIdx)*s.curLen + m.Shed)
		}
		s.mu.Unlock()
	}
	return p, true
}

// applyNotice re-anchors the session's position arithmetic at the
// announced geometry and surfaces the notice to the caller. After a resume
// the daemon redelivers every notice from the boundary the session may
// have missed on, so one it already holds can arrive again: that copy is
// dropped, keeping NoticeTrail and Resizes exact.
func (s *Session) applyNotice(n wire.Notice) {
	nt := Notice{
		Kind:           n.Kind,
		Rung:           int(n.Rung),
		Index:          n.Index,
		Observed:       n.Observed,
		Shed:           n.Shed,
		IntervalLength: n.IntervalLength,
		TotalEntries:   n.TotalEntries,
		NumTables:      n.NumTables,
		Shards:         n.Shards,
		Reason:         n.Reason,
	}
	s.mu.Lock()
	for i := len(s.noticeTrail) - 1; i >= 0 && s.noticeTrail[i].Index >= nt.Index; i-- {
		if s.noticeTrail[i] == nt {
			s.mu.Unlock()
			return
		}
	}
	s.lastShed.Store(n.Shed)
	s.rung.Store(int32(n.Rung))
	// A notice for a boundary older than the current anchor is a
	// redelivery after a resume whose ack already resynchronized the
	// geometry: record it in the trail (it carries the timeline detail the
	// ack lacks) but leave the counter and anchor alone.
	if n.IntervalLength > 0 && !s.opts.Marked && n.Index+1 >= s.baseIdx {
		if n.IntervalLength != s.curLen || n.TotalEntries != s.curEntries ||
			n.NumTables != s.curTables || n.Shards != s.curShards {
			s.resizes.Add(1)
		}
		s.curLen = n.IntervalLength
		s.curEntries, s.curTables, s.curShards = n.TotalEntries, n.NumTables, n.Shards
		s.baseIdx = n.Index + 1
		s.obsBase = n.Observed
	}
	if len(s.noticeTrail) < maxNoticeTrail {
		s.noticeTrail = append(s.noticeTrail, nt)
	}
	s.mu.Unlock()
	select {
	case s.notices <- nt:
	default:
		s.noticeDrops.Add(1)
	}
}

// prune drops replay-buffered events below floor, an absolute stream
// position the daemon has provably consumed.
func (s *Session) prune(floor uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked(floor)
}

func (s *Session) pruneLocked(floor uint64) {
	if !s.replayOn {
		return
	}
	if floor > s.sentPos {
		floor = s.sentPos
	}
	if floor > s.replayBase {
		drop := int(floor - s.replayBase)
		s.replay = append(s.replay[:0], s.replay[drop:]...)
		s.replayBase = floor
	}
}

// pruneMarked drops the marks profile index idx proves consumed, and the
// replay-buffered events below the last such mark's position.
func (s *Session) pruneMarked(idx uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.replayOn {
		return
	}
	var floor uint64
	found := false
	drop := 0
	for drop < len(s.marks) && s.marks[drop].index <= idx {
		floor = s.marks[drop].pos
		found = true
		drop++
	}
	if found {
		s.marks = append(s.marks[:0], s.marks[drop:]...)
		s.pruneLocked(floor)
	}
}

// failRead records the reader's terminal error.
func (s *Session) failRead(err error) {
	s.mu.Lock()
	if s.readErr == nil {
		s.readErr = err
	}
	s.mu.Unlock()
}

// fail records the session's terminal error; callers get the first one.
// Callers must hold mu.
func (s *Session) failLocked(err error) error {
	if s.permErr == nil {
		s.permErr = err
	}
	return s.permErr
}

// reconnect re-establishes the session after the attachment of generation
// failedGen broke with cause. Both the reader and the writer funnel their
// failures here; whichever arrives first performs the dance under mu while
// the other blocks and then finds the generation already advanced. On
// success the session's events past the daemon's acknowledged position
// have been replayed (and a sent drain re-sent) on the fresh connection.
func (s *Session) reconnect(failedGen uint64, cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.permErr != nil {
		return s.permErr
	}
	if s.gen != failedGen {
		return nil // another goroutine already resumed the session
	}
	if s.closedFlag.Load() {
		return s.failLocked(ErrSessionClosed)
	}
	if !s.replayOn {
		return s.failLocked(fmt.Errorf("client: %w", cause))
	}
	s.conn.Close()
	delay := s.opts.BackoffBase
	for attempt := 0; s.opts.MaxAttempts < 0 || attempt < s.opts.MaxAttempts; attempt++ {
		// Jittered exponential backoff: uniform in [delay/2, delay], so a
		// daemon restart is not greeted by every client at once.
		d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		select {
		case <-time.After(d):
		case <-s.closeCh:
			return s.failLocked(ErrSessionClosed)
		}
		if delay *= 2; delay > s.opts.BackoffMax {
			delay = s.opts.BackoffMax
		}
		err := s.resumeOnce()
		if err == nil {
			s.gen++
			s.reconnects.Add(1)
			return nil
		}
		var perm permanentErr
		if errors.As(err, &perm) {
			return s.failLocked(fmt.Errorf("client: resume failed: %w", perm.err))
		}
	}
	return s.failLocked(fmt.Errorf("client: reconnect gave up after %d attempts: %w", s.opts.MaxAttempts, cause))
}

// resumeOnce makes one resume attempt: dial, handshake, Resume/ResumeAck,
// replay past the daemon's position, re-send a pending drain. Called with
// mu held. Retryable failures return plain errors; refusals that must not
// be retried return permanentErr.
func (s *Session) resumeOnce() error {
	conn, err := dial(s.addr, s.opts)
	if err != nil {
		return err
	}
	wc := frame(conn, s.opts)
	if err := wc.ClientHandshake(); err != nil {
		conn.Close()
		return err
	}
	r := wire.Resume{SessionID: s.ack.SessionID, Intervals: s.nextIdx.Load(), Floor: s.replayBase}
	if err := wc.WriteFrame(wire.MsgResume, wire.AppendResume(nil, r)); err != nil {
		conn.Close()
		return err
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		conn.Close()
		return err
	}
	switch typ {
	case wire.MsgResumeAck:
	case wire.MsgError:
		conn.Close()
		e, derr := wire.DecodeError(payload)
		if derr != nil {
			return derr
		}
		if e.Code == wire.CodeCorrupt {
			return e // transport damage on the resume exchange itself
		}
		return permanentErr{err: e}
	default:
		conn.Close()
		return permanentErr{err: fmt.Errorf("%w: expected resume-ack, got frame type %d", wire.ErrProtocol, typ)}
	}
	ack, err := wire.DecodeResumeAck(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if ack.StreamPos < s.replayBase || ack.StreamPos > s.sentPos {
		conn.Close()
		return permanentErr{err: fmt.Errorf("daemon acknowledged stream position %d outside the replayable range [%d, %d]",
			ack.StreamPos, s.replayBase, s.sentPos)}
	}
	s.lastShed.Store(ack.Shed)
	if !s.opts.Marked && ack.IntervalLength > 0 {
		// The ack re-anchors the prune-floor arithmetic at the daemon's
		// current geometry: interval ack.Intervals begins at observed
		// position StreamPos − Shed − Offset, with IntervalLength events
		// per interval from there on. Profiles the daemon resends from
		// before the anchor skip pruning (under-pruning is safe).
		if ack.IntervalLength != s.curLen || ack.TotalEntries != s.curEntries ||
			ack.NumTables != s.curTables || ack.Shards != s.curShards {
			s.resizes.Add(1)
		}
		s.curLen = ack.IntervalLength
		s.curEntries, s.curTables, s.curShards = ack.TotalEntries, ack.NumTables, ack.Shards
		s.baseIdx = ack.Intervals
		s.obsBase = (ack.StreamPos - ack.Shed) - ack.Offset
	}
	// Replay exactly the events the daemon has not consumed, re-sending
	// unconsumed interval marks at their recorded stream positions so
	// boundary placement survives the outage. The encoding buffer is
	// local: s.enc belongs to the caller's Flush path, which may be
	// mid-write on the dead connection while the reader resumes.
	var enc []byte
	sendMark := func(idx uint64) error {
		if err := wc.WriteFrame(wire.MsgMark, wire.AppendMark(enc[:0], wire.Mark{Index: idx})); err != nil {
			conn.Close()
			return err
		}
		return nil
	}
	// Marks the ack's interval count proves consumed are skipped; the rest
	// all sit at positions ≥ the acked stream position (frames are FIFO:
	// the daemon cannot have consumed events past a mark without the mark).
	marks := s.marks
	for len(marks) > 0 && marks[0].index < ack.Intervals {
		marks = marks[1:]
	}
	pos := ack.StreamPos
	tail := s.replay[pos-s.replayBase:]
	for {
		for len(marks) > 0 && marks[0].pos <= pos {
			if err := sendMark(marks[0].index); err != nil {
				return err
			}
			marks = marks[1:]
		}
		if len(tail) == 0 {
			break
		}
		n := len(tail)
		if n > s.batchSize {
			n = s.batchSize
		}
		if len(marks) > 0 && marks[0].pos < pos+uint64(n) {
			n = int(marks[0].pos - pos)
		}
		enc = wire.AppendBatch(enc[:0], tail[:n])
		if err := wc.WriteFrame(wire.MsgBatch, enc); err != nil {
			conn.Close()
			return err
		}
		tail = tail[n:]
		pos += uint64(n)
	}
	if s.drainSent {
		if err := wc.WriteFrame(wire.MsgDrain, nil); err != nil {
			conn.Close()
			return err
		}
	}
	s.conn, s.wc = conn, wc
	return nil
}

// Observe queues one event for the daemon, flushing a batch frame when the
// batch is full.
func (s *Session) Observe(tp event.Tuple) error {
	s.pending = append(s.pending, tp)
	if len(s.pending) >= s.batchSize {
		return s.Flush()
	}
	return nil
}

// ObserveBatch queues every tuple of batch, flushing as frames fill.
func (s *Session) ObserveBatch(batch []event.Tuple) error {
	for len(batch) > 0 {
		n := copy(s.pending[len(s.pending):cap(s.pending)], batch)
		s.pending = s.pending[:len(s.pending)+n]
		batch = batch[n:]
		if len(s.pending) >= s.batchSize {
			if err := s.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush sends the pending events, if any, as one batch frame. On a
// resumable session a write failure is not terminal: the events are
// already in the replay buffer, and the reconnect that repairs the stream
// replays them — Flush's contract is "durably queued", not "on the wire".
func (s *Session) Flush() error {
	if len(s.pending) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.drainSent || s.closedFlag.Load() {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if s.permErr != nil {
		err := s.permErr
		s.mu.Unlock()
		return err
	}
	wc, gen := s.wc, s.gen
	if s.replayOn {
		s.replay = append(s.replay, s.pending...)
		s.sentPos += uint64(len(s.pending))
	}
	s.mu.Unlock()
	s.enc = wire.AppendBatch(s.enc[:0], s.pending)
	s.pending = s.pending[:0]
	if err := wc.WriteFrame(wire.MsgBatch, s.enc); err != nil {
		return s.writeFailed(gen, err)
	}
	return nil
}

// Mark closes the current interval at the exact position of the events
// sent so far (marked sessions only): pending events are flushed, then a
// mark frame places the boundary. The daemon answers with the interval's
// profile exactly as if an IntervalLength boundary had been crossed. Like
// Flush, a write failure on a resumable session is not terminal — the mark
// is recorded alongside the replay buffer and re-sent at its exact stream
// position by the resume.
func (s *Session) Mark() error {
	if !s.opts.Marked {
		return errors.New("client: Mark on a session not opened with Options.Marked")
	}
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.drainSent || s.closedFlag.Load() {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if s.permErr != nil {
		err := s.permErr
		s.mu.Unlock()
		return err
	}
	idx := s.markIdx
	s.markIdx++
	if s.replayOn {
		s.marks = append(s.marks, markRec{index: idx, pos: s.sentPos})
	}
	wc, gen := s.wc, s.gen
	s.mu.Unlock()
	if err := wc.WriteFrame(wire.MsgMark, wire.AppendMark(nil, wire.Mark{Index: idx})); err != nil {
		return s.writeFailed(gen, err)
	}
	return nil
}

// writeFailed routes a write failure: resumable sessions reconnect (the
// failed frame's events ride the replay buffer), others record a terminal
// error, preferring an already-recorded server explanation.
func (s *Session) writeFailed(gen uint64, err error) error {
	if s.replayOn && retryable(err) {
		return s.reconnect(gen, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readErr != nil {
		err = s.readErr
		return s.failLocked(err)
	}
	return s.failLocked(fmt.Errorf("client: writing: %w", err))
}

// sendDrain writes the drain frame, marking the session drain-sent first
// so a reconnect racing the write re-sends it.
func (s *Session) sendDrain() error {
	s.mu.Lock()
	if s.drainSent {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if s.permErr != nil {
		err := s.permErr
		s.mu.Unlock()
		return err
	}
	s.drainSent = true
	wc, gen := s.wc, s.gen
	s.mu.Unlock()
	if err := wc.WriteFrame(wire.MsgDrain, nil); err != nil {
		return s.writeFailed(gen, err)
	}
	return nil
}

// Drain finishes the session gracefully: pending events are flushed, the
// daemon drains its queue and replies with the unfinished interval's
// partial profile, and the connection closes. Any complete-interval
// profiles still in flight are discarded — consume Profiles first (or use
// Run) if you want them. Drain returns the partial profile's counts.
func (s *Session) Drain() (map[event.Tuple]uint64, error) {
	if err := s.Flush(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.sendDrain(); err != nil {
		s.Close()
		return nil, err
	}
	var final map[event.Tuple]uint64
	for p := range s.profiles {
		if p.Final {
			final = p.Counts
		}
	}
	s.mu.Lock()
	ok, readErr := s.goodbye, s.readErr
	conn := s.conn
	s.mu.Unlock()
	conn.Close()
	if !ok {
		if readErr != nil {
			return final, readErr
		}
		return final, fmt.Errorf("client: session ended without goodbye")
	}
	return final, nil
}

// Close abandons the session: a best-effort goodbye frame, then the
// connection closes and any reconnect in progress aborts. Profiles in
// flight and the unfinished interval are discarded. Close is idempotent.
func (s *Session) Close() error {
	if !s.closedFlag.CompareAndSwap(false, true) {
		return nil
	}
	close(s.closeCh) // abort reconnect backoff sleeps before taking mu
	s.mu.Lock()
	wc, conn := s.wc, s.conn
	s.mu.Unlock()
	wc.WriteFrame(wire.MsgGoodbye, nil)
	err := conn.Close()
	for range s.profiles {
		// Unblock the reader so it can observe the closed connection.
	}
	return err
}

// Run streams all of src through the session and invokes fn — when non-nil
// — for each complete interval profile, in interval order, then drains the
// session. The final partial interval is discarded, mirroring
// hwprof.Profile. It returns the number of complete intervals
// delivered and the first error among the source, the stream and the
// daemon. fn runs on a separate goroutine from the source reads, but its
// calls are sequential. Run consumes the session: after it returns the
// session is closed.
func (s *Session) Run(src event.Source, fn func(index int, counts map[event.Tuple]uint64)) (int, error) {
	intervals := 0
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for p := range s.profiles {
			if p.Final {
				continue
			}
			if fn != nil {
				fn(int(p.Index), p.Counts)
			}
			intervals++
		}
	}()

	batched := event.Batched(src)
	buf := make([]event.Tuple, s.batchSize)
	var streamErr error
	for {
		got := batched.NextBatch(buf)
		if got == 0 {
			if err := batched.Err(); err != nil {
				streamErr = fmt.Errorf("client: source failed mid-stream: %w", err)
			}
			break
		}
		if err := s.ObserveBatch(buf[:got]); err != nil {
			streamErr = err
			break
		}
	}

	// Ask the daemon to drain; the consumer above sees every in-flight
	// profile first because the reader delivers in order and closes the
	// channel only at the end. On any failure, close the session instead
	// so the reader (and with it the consumer) is guaranteed to unblock.
	drainErr := streamErr
	if drainErr == nil {
		drainErr = s.Flush()
	}
	if drainErr == nil {
		drainErr = s.sendDrain()
	}
	if drainErr != nil {
		s.Close()
	}
	<-consumed
	s.mu.Lock()
	goodbye, readErr := s.goodbye, s.readErr
	conn := s.conn
	s.mu.Unlock()
	conn.Close()

	if streamErr != nil {
		return intervals, streamErr
	}
	if drainErr != nil {
		if readErr != nil {
			return intervals, readErr // the server's explanation beats the raw I/O error
		}
		return intervals, drainErr
	}
	if !goodbye {
		if readErr != nil {
			return intervals, readErr
		}
		return intervals, fmt.Errorf("client: session ended without goodbye")
	}
	return intervals, nil
}
