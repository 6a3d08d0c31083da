// Package client implements the remote-profiling client: it dials a
// profiled daemon, opens a session for a profiler configuration, streams
// event batches over the wire protocol, and delivers the interval profiles
// the daemon returns.
//
// A Session runs one background goroutine that reads server frames, feeds
// the Profiles channel and records the daemon's elastic-serving notices in
// NoticeTrail, summarized by Rung and Resizes; the caller's goroutine
// writes. Profiles and notices are the wire's own message types. Run is the
// high-level driver — stream a whole Source, invoke a callback per interval
// profile, drain — and mirrors hwprof.Profile closely enough that, on a
// block-policy server, the two produce bit-identical profiles for the same
// configuration, seed and stream.
//
// # Reconnect and resume
//
// With Options.Reconnect on (and a daemon that retains disconnected
// sessions), a Session survives its connection: it keeps a log of the
// frames it sent — batches, marks and the drain, encoded as they went out —
// and drops a frame only once an interval profile proves the daemon
// consumed it. When the stream breaks — disconnect, timeout, frame
// corruption on either side — the session redials under jittered
// exponential backoff, sends a Resume naming its session and the log's
// first position, resends the log's suffix past the daemon's acknowledged
// stream position, and continues. The daemon resends the profiles and
// notices the session may have missed, in the order it first sent them;
// profiles are deduplicated by index and notices against NoticeTrail, so
// the caller observes each interval and each notice exactly once and the
// delivered sequence is bit-identical to an uninterrupted run.
// Failures that reflect a bug rather than a broken stream — protocol
// violations, refused or unknown sessions, daemon-internal errors — are
// terminal.
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// ErrSessionClosed is returned by operations on a session that was already
// closed or drained.
var ErrSessionClosed = errors.New("client: session is closed")

// Options tunes a session.
type Options struct {
	// Shards is the shard count the daemon should run for this session;
	// 0 or 1 means sequential. Daemons may clamp it.
	Shards int

	// BatchSize is the number of tuples per batch frame; 0 selects
	// event.DefaultBatchSize.
	BatchSize int

	// Reconnect makes the session survive stream failures: sent frames
	// are logged until a profile proves them consumed, and a broken
	// connection is redialed and resumed transparently. Takes effect only
	// when the daemon advertises resume support in its HelloAck.
	Reconnect bool

	// Link tunes the dial, the I/O deadlines and the resume loop; see
	// wire.Link. MaxAttempts counts the break itself, so a session makes
	// at most MaxAttempts−1 resume attempts per outage. Leave ReadTimeout
	// disabled unless the event stream is steady: a profile only arrives
	// per completed interval, so a slow source can legitimately keep the
	// read side quiet for a long time. A stalled write may just mean a
	// busy engine, since a block-policy daemon backpressures through TCP.
	wire.Link

	// Marked opens a marked session: the client places every interval
	// boundary itself by calling Session.Mark, and the daemon stops
	// clipping the stream by IntervalLength. A coordinator that owns a
	// fleet-wide union stream uses marks to align every member session's
	// interval — and therefore epoch — boundaries with the union's.
	Marked bool
}

// Notice is one elastic-serving announcement from the daemon, as the
// wire carries it; see wire.Notice.
type Notice = wire.Notice

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

// Profile is one interval profile as delivered by the daemon, as the wire
// carries it; see wire.ProfileMsg.
type Profile = wire.ProfileMsg

// errGoodbye is readFrames's clean-end sentinel; it never escapes the
// reader.
var errGoodbye = errors.New("goodbye")

// Session is one open profiling session with a daemon.
type Session struct {
	cfg    core.Config
	opts   Options
	ack    wire.HelloAck
	redial *wire.Redialer

	batchSize int
	pending   []event.Tuple
	enc       []byte // the next frame's payload buffer
	markIdx   uint64 // next interval-mark index (marked sessions)

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
	// resizes counts notices that changed the session's geometry.
	resizes atomic.Uint64

	closedFlag atomic.Bool

	mu        sync.Mutex
	conn      net.Conn
	wc        *wire.Conn
	gen       uint64   // attachment generation; bumped per successful resume
	replayOn  bool     // Reconnect requested and daemon advertises resume
	log       []frame  // frames sent and not yet proven consumed (replayOn)
	spare     [][]byte // payload buffers of pruned frames, for reuse
	sentPos   uint64   // absolute stream position after everything sent
	drainSent bool
	goodbye   bool
	permErr   error // terminal session error
	readErr   error // reader's terminal error (when not permErr)

	// Elastic anchor: a complete profile i ≥ baseIdx proves the daemon
	// consumed obsBase + (i+1−baseIdx)·curLen observed events. With no
	// resize the anchor stays at (cfg.IntervalLength, 0, 0) and the
	// arithmetic reduces to the fixed-length (i+1)·L form. Notices move
	// it. curEntries/curTables/curShards complete the geometry snapshot,
	// from the Hello's config and the HelloAck's shard count, so the
	// Resizes counter catches changes on any axis.
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

// frame is one logged frame of a resumable session, with its payload as
// sent: a batch covering the absolute stream positions [pos, end), or a
// mark or the drain at pos (end == pos). A batch payload is
// self-contained, its delta chain starting afresh, so any logged frame
// can be resent alone.
type frame struct {
	typ      byte
	pos, end uint64
	index    uint64 // a mark's interval index
	payload  []byte
}

// Dial connects to a daemon at addr (TCP host:port), opens a session for
// cfg, and returns it once the daemon has acknowledged. The configuration
// is validated locally first, so most mistakes fail before touching the
// network.
func Dial(addr string, cfg core.Config, opts Options) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	r := wire.NewRedialer(addr, opts.Link)
	conn, wc, err := r.Dial()
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	s, err := open(r, conn, wc, cfg, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// open performs the Hello/HelloAck exchange over a handshaken connection
// and starts the session's reader.
func open(r *wire.Redialer, conn net.Conn, wc *wire.Conn, cfg core.Config, opts Options) (*Session, error) {
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
		cfg:        cfg,
		opts:       opts,
		ack:        ack,
		redial:     r,
		batchSize:  batchSize,
		pending:    make([]event.Tuple, 0, batchSize),
		profiles:   make(chan Profile, 64),
		conn:       conn,
		wc:         wc,
		replayOn:   opts.Reconnect && ack.Resume,
		curLen:     cfg.IntervalLength,
		curEntries: cfg.TotalEntries,
		curTables:  cfg.NumTables,
		curShards:  ack.Shards,
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

// Resizes returns how many notices changed the session's geometry. The
// daemon delivers every notice in order, across resumes and daemon
// restarts, and the session drops the ones it already holds, so this is
// exactly the geometry changes NoticeTrail records.
func (s *Session) Resizes() uint64 { return s.resizes.Load() }

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
	return !wire.IsPermanent(err) && !errors.Is(err, wire.ErrProtocol)
}

// readLoop is the session's reader goroutine: it decodes server frames
// into the Profiles channel, reconnecting across stream failures when the
// session is resumable, until goodbye, terminal error, or Close.
func (s *Session) readLoop() {
	defer close(s.profiles)
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
			p, derr := wire.DecodeProfile(payload)
			if derr != nil {
				return derr // wraps ErrCorrupt: resumable transport damage
			}
			if s.admitProfile(p) {
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
			return wire.Permanent(e)
		default:
			return wire.Permanent(fmt.Errorf("%w: unexpected frame type %d", wire.ErrProtocol, typ))
		}
	}
}

// admitProfile deduplicates and accounts one profile frame, reporting
// whether the caller should see it: resends below the expected index are
// dropped, the log is pruned by what the profile proves the daemon
// consumed, and the shed count is published.
func (s *Session) admitProfile(p Profile) bool {
	s.lastShed.Store(p.Shed)
	if p.Final {
		return true
	}
	if p.Index < s.nextIdx.Load() {
		return false // duplicate resend after a resume
	}
	s.nextIdx.Store(p.Index + 1)
	s.mu.Lock()
	s.pruneLocked(p.Index, p.Shed)
	s.mu.Unlock()
	return true
}

// pruneLocked drops the log's longest prefix that ends in a frame profile
// idx proves consumed, keeping the dropped payloads for reuse. On a marked
// session that frame is a mark at or below idx: interval idx ended at the
// boundary the client placed. Otherwise it is a batch ending at or below
// the interval's closing observed position plus everything shed; the
// elastic anchor generalizes the fixed-length (idx+1)·L arithmetic across
// resizes, and a profile from before the anchor, which in-order delivery
// never produces, prunes nothing. Under-pruning is always safe, so the
// batch that straddles the floor stays.
func (s *Session) pruneLocked(idx, shed uint64) {
	if !s.opts.Marked && idx+1 <= s.baseIdx {
		return
	}
	floor := s.obsBase + (idx+1-s.baseIdx)*s.curLen + shed
	drop := 0
	for i, f := range s.log {
		if s.opts.Marked && f.typ == wire.MsgMark && f.index <= idx ||
			!s.opts.Marked && f.typ == wire.MsgBatch && f.end <= floor {
			drop = i + 1
		}
	}
	for _, f := range s.log[:drop] {
		if cap(f.payload) > 0 {
			s.spare = append(s.spare, f.payload)
		}
	}
	s.log = append(s.log[:0], s.log[drop:]...)
}

// floorLocked is the log's first stream position: the session can resend
// every event from it on.
func (s *Session) floorLocked() uint64 {
	if len(s.log) > 0 {
		return s.log[0].pos
	}
	return s.sentPos
}

// applyNotice re-anchors the session's position arithmetic at the
// announced geometry and records the notice in NoticeTrail. After a resume
// the daemon resends every notice from the boundary of the session's last
// profile on, so one it already holds can arrive again: that copy is
// dropped, keeping NoticeTrail and Resizes exact. Every other notice is
// new and arrives in order, so it moves the anchor.
func (s *Session) applyNotice(n Notice) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.noticeTrail) - 1; i >= 0 && s.noticeTrail[i].Index >= n.Index; i-- {
		if s.noticeTrail[i] == n {
			return
		}
	}
	s.lastShed.Store(n.Shed)
	s.rung.Store(int32(n.Rung))
	if n.IntervalLength > 0 && !s.opts.Marked {
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
		s.noticeTrail = append(s.noticeTrail, n)
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
// success the log's frames past the daemon's acknowledged position have
// been resent on the fresh connection.
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
	err := s.redial.Redial(cause, func() (bool, error) { return false, s.resumeOnce() })
	switch {
	case err == nil:
		s.gen++
		s.reconnects.Add(1)
		return nil
	case errors.Is(err, wire.ErrRedialerClosed):
		return s.failLocked(ErrSessionClosed)
	case wire.IsPermanent(err):
		return s.failLocked(fmt.Errorf("client: resume failed: %w", err))
	}
	return s.failLocked(fmt.Errorf("client: reconnect %w", err))
}

// resumeOnce makes one resume attempt: dial, handshake, Resume/ResumeAck,
// resend the log past the daemon's position. Called with mu held.
// Retryable failures return plain errors; refusals that must not be
// retried are marked wire.Permanent.
func (s *Session) resumeOnce() error {
	conn, wc, err := s.redial.Dial()
	if err != nil {
		return err
	}
	floor := s.floorLocked()
	r := wire.Resume{SessionID: s.ack.SessionID, Intervals: s.nextIdx.Load(), Floor: floor}
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
		return wire.Permanent(e)
	default:
		conn.Close()
		return wire.Permanent(fmt.Errorf("%w: expected resume-ack, got frame type %d", wire.ErrProtocol, typ))
	}
	ack, err := wire.DecodeResumeAck(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if ack.StreamPos < floor || ack.StreamPos > s.sentPos {
		conn.Close()
		return wire.Permanent(fmt.Errorf("daemon acknowledged stream position %d outside the replayable range [%d, %d]",
			ack.StreamPos, floor, s.sentPos))
	}
	s.lastShed.Store(ack.Shed)
	// Resend the log's unconsumed suffix as it was sent. Marks the ack's
	// interval count proves consumed and batches ending at or below its
	// stream position are skipped; every other frame sits at or past that
	// position, since frames are FIFO. Only a daemon recovered from its
	// journal can stop inside a batch, because its worker journals batches
	// in pieces cut at interval boundaries: that batch's tail is
	// re-encoded, into a local buffer, since s.enc belongs to the caller's
	// send path, which may be mid-write on the dead connection.
	for _, f := range s.log {
		payload := f.payload
		switch {
		case f.typ == wire.MsgMark && f.index < ack.Intervals,
			f.typ == wire.MsgBatch && f.end <= ack.StreamPos:
			continue
		case f.typ == wire.MsgBatch && f.pos < ack.StreamPos:
			tuples, err := wire.DecodeBatch(f.payload, nil)
			if err != nil {
				conn.Close()
				return wire.Permanent(err)
			}
			payload = wire.AppendBatch(nil, tuples[ack.StreamPos-f.pos:])
		}
		if err := wc.WriteFrame(f.typ, payload); err != nil {
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
// resumable session a write failure is not terminal: the frame is already
// in the session's log, and the reconnect that repairs the stream resends
// it — Flush's contract is "durably queued", not "on the wire".
func (s *Session) Flush() error {
	if len(s.pending) == 0 {
		return nil
	}
	n := uint64(len(s.pending))
	s.enc = wire.AppendBatch(s.enc[:0], s.pending)
	s.pending = s.pending[:0]
	return s.send(wire.MsgBatch, s.enc, n, 0)
}

// Mark closes the current interval at the exact position of the events
// sent so far (marked sessions only): pending events are flushed, then a
// mark frame places the boundary. The daemon answers with the interval's
// profile exactly as if an IntervalLength boundary had been crossed. Like
// Flush, a write failure on a resumable session is not terminal — the mark
// is logged between the batches around it, and the resume resends it at
// its exact stream position.
func (s *Session) Mark() error {
	if !s.opts.Marked {
		return errors.New("client: Mark on a session not opened with Options.Marked")
	}
	if err := s.Flush(); err != nil {
		return err
	}
	idx := s.markIdx
	s.markIdx++
	s.enc = wire.AppendMark(s.enc[:0], wire.Mark{Index: idx})
	return s.send(wire.MsgMark, s.enc, 0, idx)
}

// send writes one frame carrying the next n events of the stream (a mark
// or the drain carries none). On a resumable session the frame is logged
// before the lock is released for the write, so a reconnect racing the
// write resends it and the failed write finds the generation already
// advanced; the log then owns payload, and the next frame encodes into a
// pruned frame's buffer.
func (s *Session) send(typ byte, payload []byte, n, index uint64) error {
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
	if typ == wire.MsgDrain {
		s.drainSent = true
	}
	if s.replayOn {
		s.log = append(s.log, frame{typ: typ, pos: s.sentPos, end: s.sentPos + n, index: index, payload: payload})
		s.enc = nil
		if k := len(s.spare); k > 0 {
			s.enc, s.spare = s.spare[k-1], s.spare[:k-1]
		}
	}
	s.sentPos += n
	wc, gen := s.wc, s.gen
	s.mu.Unlock()
	if err := wc.WriteFrame(typ, payload); err != nil {
		return s.writeFailed(gen, err)
	}
	return nil
}

// writeFailed routes a write failure: resumable sessions reconnect (the
// failed frame rides the log), others record a terminal error, preferring
// an already-recorded server explanation.
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

// sendDrain writes the drain frame; like every frame, it is logged first
// on a resumable session, so a reconnect racing the write resends it.
func (s *Session) sendDrain() error { return s.send(wire.MsgDrain, nil, 0, 0) }

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

// Close abandons the session: any reconnect in progress aborts, then a
// best-effort goodbye frame goes out and the connection closes. Profiles in
// flight and the unfinished interval are discarded. Close is idempotent.
func (s *Session) Close() error {
	if !s.closedFlag.CompareAndSwap(false, true) {
		return nil
	}
	// Abort a backoff sleep or a resume attempt in flight, which hold mu.
	s.redial.Close()
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
