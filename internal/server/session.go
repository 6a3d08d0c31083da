package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"hwprof/internal/adaptive"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/journal"
	"hwprof/internal/shard"
	"hwprof/internal/wire"
)

// item is one unit of work on a session's queue: a decoded batch, a mark
// (client-placed interval boundary), a drain request, a client goodbye, or
// a reader-side failure to act on.
type item struct {
	batch   *[]event.Tuple
	mark    bool
	markIdx uint64 // interval index the mark claims to close
	drain   bool
	goodbye bool
	err     error // reader failure: park or tear down
	code    byte  // wire error code to report for err, 0 = don't report
	park    bool  // err is a stream failure the session can survive
}

// session is one admitted client: its engine and stream position, which
// persist across connection attachments, plus the current attachment — a
// connection, a queue, and the reader/worker goroutine pair moving frames
// through it.
//
// Ownership: the attachment fields (conn, wc, queue, attachDone) are
// replaced only by attach, between attachments, under the resume path's
// synchronization (srv.mu plus the previous attachment's attachDone).
// events, interval, log and enc belong to the worker goroutine during an
// attachment; the park/resume path reads them only after the
// attachment is fully done. Publishing the tombstone (entomb, under
// srv.mu) hands the session to the next resume, which may adopt it at
// once: the parking attachment touches no session field after that.
// streamPos, shed, parkNext and draining are shared and atomic.
type session struct {
	srv *Server
	id  uint64

	// Current attachment.
	conn       net.Conn
	wc         *wire.Conn
	queue      chan item
	attachDone chan struct{} // closed when the attachment has fully finished

	// Engine. cfg, shards and cost are fixed at admission but may be
	// re-staged by an elastic resize — always at an interval boundary, and
	// only by the worker goroutine.
	cfg    core.Config
	shards int
	eng    *shard.Profiler
	cost   float64 // admission cost held until release; re-priced on resize
	marked bool    // client places interval boundaries with MsgMark
	tenant string  // admission tenant key (remote host), fixed at admission

	// Elastic serving. elastic is the session's online controller, nil
	// when disabled (config off, marked session, or resume off). lastShed,
	// distinct and variation are the worker's per-boundary signal staging.
	// rung is the session's current degradation-ladder rung, atomic because
	// teardown paths read it for gauge cleanup. pendingResize is the
	// operator/test entry point (Server.ResizeSession): a geometry the
	// worker applies at the next boundary through the same commit path the
	// controller uses.
	elastic       *adaptive.Elastic
	lastShed      uint64  // cumulative shed at the previous boundary (worker)
	distinct      int     // distinct tuples in the last interval profile (worker)
	variation     float64 // candidate variation vs the previous interval, <0 unknown (worker)
	rung          atomic.Int32
	pendingResize atomic.Pointer[adaptive.Geometry]

	// Epoch publishing, fixed at admission. pub is the session's member
	// name in the daemon's feed ("" = not publishing); pubBase is the
	// fleet epoch its interval 0 maps to (a session admitted mid-fleet
	// joins at the current watermark). endClean is the worker's verdict at
	// the end of the last attachment: true iff every event the session
	// observed was reported into the feed, so Leave does not need to mark
	// an in-progress epoch missing. left records that the session has
	// already left the feed.
	pub      string
	pubBase  uint64
	endClean bool
	left     bool

	// Stream position, persisted across attachments.
	events   uint64 // events observed in the current partial interval
	observed uint64 // total events observed into the engine (shed excluded)
	interval uint64 // completed intervals, = next profile index
	// log is the send log of a resumable session: every profile and
	// notice frame sent, in send order, for the last ResumeWindow
	// profiles, each entry the frame's type byte followed by its payload.
	// The resume path resends the entries after the client's last profile
	// as they were first sent — whether a frame was lost with a cut
	// connection or never written to a dead one — so the client sees
	// exactly the frame sequence a live attachment would have shown it.
	log       [][]byte
	streamPos atomic.Uint64 // client-stream events consumed: observed + shed
	shed      atomic.Uint64 // cumulative events dropped under shed policy

	// Crash durability: every engine-observed batch and interval boundary
	// is mirrored here before the client learns of it, so a restarted
	// daemon can replay the session to this exact position. nil unless
	// journaling is enabled. Owned by the worker goroutine during an
	// attachment (like events/interval/log); teardown paths touch it only
	// after the attachment is done.
	jw *journal.Writer

	parkEpoch int         // guards tombstone grace timers; under srv.mu
	released  atomic.Bool // engine discarded and admission cost returned
	parkNext  atomic.Bool // worker verdict: park this attachment, don't remove
	draining  atomic.Bool // server-initiated drain in progress

	connDead bool // worker-local: write side failed; log, don't write
	gateOn   bool // reader-local: hysteresis shed gate engaged

	enc []byte // reused frame-encoding buffer (worker goroutine only)
}

// release discards the session's engine and returns its admission cost.
// Idempotent: every teardown path funnels here exactly once.
func (s *session) release() {
	if s.released.CompareAndSwap(false, true) {
		if s.jw != nil {
			if s.srv.draining.Load() {
				// Graceful shutdown keeps the journal: the session had a
				// client to come back for it, and a restarted daemon will
				// recover and re-park it so that client's Resume still
				// succeeds across the deploy.
				s.jw.Close()
			} else {
				// Expired tombstone or failed session: nothing will ever
				// resume this, on this daemon or the next one.
				s.jw.Abandon()
				if err := journal.Remove(s.srv.journal.Dir, s.id); err != nil {
					s.srv.logf("session %d: removing journal: %v", s.id, err)
				}
			}
		}
		s.leaveFeed()
		s.eng.Close()
		s.srv.admission.release(s.tenant, s.cost)
		m := s.srv.metrics
		m.TenantSessions.With(s.tenant).Add(-1)
		if rung := int(s.rung.Load()); rung > 0 {
			m.TenantDegraded.With(s.tenant).Add(-1)
			m.LadderRung.With(rungLabel(rung)).Add(-1)
		} else {
			m.LadderRung.With(rungLabel(0)).Add(-1)
		}
	}
}

// openSession admits a new session from its Hello frame: validate, charge
// the admission budget, build the engine, ack, and serve the attachment.
func (s *Server) openSession(conn net.Conn, wc *wire.Conn, payload []byte) {
	h, err := wire.DecodeHello(payload)
	if err != nil {
		s.metrics.CorruptFrames.Inc()
		s.refuseConn(conn, wc, wire.CodeProtocol, fmt.Sprintf("undecodable hello: %v", err))
		return
	}
	if err := h.Config.Validate(); err != nil {
		s.refuseConn(conn, wc, wire.CodeConfig, err.Error())
		return
	}
	tenant := tenantHost(conn.RemoteAddr())
	if s.limiter != nil && !s.limiter.allow(tenant) {
		s.metrics.AdmissionRefusedRate.Inc()
		s.metrics.TenantRefused.With(tenant).Inc()
		s.refuseConn(conn, wc, wire.CodeOverload,
			fmt.Sprintf("admission refused: tenant %s exceeded session rate %.3g/s", tenant, s.cfg.TenantRate))
		return
	}
	// Fit the requested shard count rather than refuse a stream we could
	// serve.
	h.Shards = adaptive.ClampShards(min(h.Shards, s.cfg.MaxShards), h.Config.TotalEntries)

	cost := sessionCost(h.Config, h.Shards)
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		s.metrics.AdmissionRefusedLimit.Inc()
		s.refuseConn(conn, wc, wire.CodeOverload, "server draining")
		return
	}
	refused, reason := s.admitLocked(tenant, cost)
	if refused == nil {
		s.nextID++
	}
	id := s.nextID
	s.mu.Unlock()
	if refused != nil {
		refused.Inc()
		s.metrics.TenantRefused.With(tenant).Inc()
		s.refuseConn(conn, wc, wire.CodeOverload, reason)
		return
	}

	sess := &session{srv: s, id: id, cost: cost, marked: h.Marked, tenant: tenant, variation: -1}
	if err := sess.restage(h); err != nil {
		s.admission.release(tenant, cost)
		s.refuseConn(conn, wc, wire.CodeConfig, err.Error())
		return
	}
	s.metrics.TenantSessions.With(tenant).Add(1)
	s.metrics.LadderRung.With(rungLabel(0)).Add(1)
	// A session whose interval boundaries align with the fleet epoch
	// contract — marked (the client places them on the fleet's union
	// boundaries), or plain with the matching interval length — publishes
	// each interval profile into the epoch feed under a per-session member
	// name. Its interval i is fleet epoch base+i.
	if s.feed != nil && (h.Marked || h.Config.IntervalLength == s.cfg.EpochLength) {
		sess.pub = s.pubName(id)
		sess.pubBase = s.feed.Join(sess.pub)
	}
	if s.journaling() {
		jw, err := journal.Create(s.journalOptsFor(tenant), journal.Meta{
			SessionID: id,
			Hello:     h,
			Pub:       sess.pub != "",
			PubBase:   sess.pubBase,
			Tenant:    tenant,
		})
		if err != nil {
			// A session we cannot journal is a session we cannot keep the
			// durability promise for; refuse rather than silently degrade.
			s.logf("session %d: creating journal: %v", id, err)
			sess.release()
			s.refuseConn(conn, wc, wire.CodeInternal, fmt.Sprintf("journal unavailable: %v", err))
			return
		}
		sess.jw = jw
	}
	// Until the HelloAck is written no client knows this session, so a
	// session refused or failed before then ends its journal: a restarted
	// daemon must not recover a session nobody will resume.
	if !s.attach(sess, conn, wc) {
		sess.endJournal()
		sess.release()
		s.refuseConn(conn, wc, wire.CodeOverload, "server draining")
		return
	}
	s.metrics.SessionsTotal.Inc()
	s.logf("session %d: open from %s: %v, %d shard(s), cost %.3f, marked %v, publish %q",
		id, conn.RemoteAddr(), h.Config, h.Shards, cost, h.Marked, sess.pub)

	ack := wire.HelloAck{
		SessionID:  id,
		Shed:       s.cfg.Shed,
		QueueDepth: s.cfg.QueueDepth,
		Resume:     s.cfg.resumeEnabled(),
		Shards:     sess.shards,
	}
	if err := wc.WriteFrame(wire.MsgHelloAck, wire.AppendHelloAck(nil, ack)); err != nil {
		s.logf("session %d: writing hello-ack: %v", id, err)
		s.metrics.SessionErrors.Inc()
		conn.Close()
		sess.endJournal()
		s.removeSession(sess)
		close(sess.attachDone)
		return
	}
	sess.serve()
}

// attach makes conn the session's current attachment — a fresh queue and
// attachDone, the per-attachment state reset — and registers the session
// as live. It reports false, leaving the session unregistered, when the
// server is draining. The Hello and Resume paths both attach through here.
func (s *Server) attach(sess *session, conn net.Conn, wc *wire.Conn) bool {
	sess.conn, sess.wc = conn, wc
	sess.queue = make(chan item, s.cfg.QueueDepth)
	sess.attachDone = make(chan struct{})
	sess.connDead = false
	sess.gateOn = false
	sess.parkNext.Store(false)
	sess.draining.Store(false)
	// Elastic serving needs a worker that owns its boundaries (not marked)
	// and somewhere for rung 4 to park into (resume). A recovered session
	// lost its controller in the crash; its first attachment rebuilds it,
	// re-admitting the current (possibly resized) geometry as the restore
	// target.
	if s.cfg.Elastic && sess.elastic == nil && !sess.marked && s.cfg.resumeEnabled() {
		sess.elastic = s.newElastic(sess)
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return false
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.metrics.SessionsActive.Add(1)
	return true
}

// restage validates h's configuration and swaps in a fresh engine built
// from it, discarding the previous engine (and its retained candidates)
// outright: a session's first engine, at Hello or at the start of a
// journal replay, every live resize, and every journaled resize notice
// the replay re-applies.
func (s *session) restage(h wire.Hello) error {
	if err := h.Config.Validate(); err != nil {
		return err
	}
	shards := max(h.Shards, 1)
	eng, err := shard.New(shard.Config{Core: h.Config, NumShards: shards})
	if err != nil {
		return err
	}
	if s.eng != nil {
		s.eng.Close()
	}
	s.eng, s.cfg, s.shards = eng, h.Config, shards
	return nil
}

// pubName is session id's member name in the daemon's epoch feed.
func (s *Server) pubName(id uint64) string { return fmt.Sprintf("%s/s%d", s.cfg.MachineID, id) }

// resumeSession reattaches a connection to a parked session named by its
// Resume frame. If the session is still live (the server has not yet
// noticed its connection die — e.g. the client saw corruption the server
// did not), the stale attachment is killed first and the resulting
// tombstone adopted.
func (s *Server) resumeSession(conn net.Conn, wc *wire.Conn, payload []byte) {
	r, err := wire.DecodeResume(payload)
	if err != nil {
		s.metrics.CorruptFrames.Inc()
		s.refuseConn(conn, wc, wire.CodeProtocol, fmt.Sprintf("undecodable resume: %v", err))
		return
	}
	if !s.cfg.resumeEnabled() {
		s.metrics.ResumeFailures.Inc()
		s.refuseConn(conn, wc, wire.CodeUnknownSession, "resume disabled on this server")
		return
	}
	for attempt := 0; attempt < 2; attempt++ {
		s.mu.Lock()
		if sess := s.tombs[r.SessionID]; sess != nil {
			delete(s.tombs, r.SessionID)
			sess.parkEpoch++ // invalidate the pending grace timer
			s.mu.Unlock()
			s.metrics.SessionsParked.Add(-1)
			s.adopt(sess, conn, wc, r)
			return
		}
		live := s.sessions[r.SessionID]
		var liveConn net.Conn
		var liveDone chan struct{}
		if live != nil {
			liveConn, liveDone = live.conn, live.attachDone
		}
		s.mu.Unlock()
		if live == nil {
			break
		}
		liveConn.Close()
		select {
		case <-liveDone:
		case <-time.After(5 * time.Second):
			s.metrics.ResumeFailures.Inc()
			s.refuseConn(conn, wc, wire.CodeInternal,
				fmt.Sprintf("session %d did not release its previous connection", r.SessionID))
			return
		}
	}
	s.metrics.ResumeFailures.Inc()
	s.refuseConn(conn, wc, wire.CodeUnknownSession, fmt.Sprintf("unknown session %d", r.SessionID))
}

// adopt reattaches conn to a session pulled out of the tombstone map. The
// client's claimed position is validated against the engine's, the exact
// server position is acked, the logged frames the client may not have seen
// are resent, and the attachment goroutines start.
func (s *Server) adopt(sess *session, conn net.Conn, wc *wire.Conn, r wire.Resume) {
	pos := sess.streamPos.Load()
	kept := sess.loggedProfiles()
	var code byte
	var refusal string
	switch {
	case r.Intervals > sess.interval:
		code = wire.CodeProtocol
		refusal = fmt.Sprintf("resume claims %d intervals, server has %d", r.Intervals, sess.interval)
	case sess.interval-r.Intervals > uint64(kept):
		code = wire.CodeUnknownSession
		refusal = fmt.Sprintf("resume window exceeded: client at interval %d, server at %d with %d profile(s) retained",
			r.Intervals, sess.interval, kept)
	case r.Floor > pos:
		code = wire.CodeProtocol
		refusal = fmt.Sprintf("resume replay floor %d is beyond the server's stream position %d", r.Floor, pos)
	}
	if refusal != "" {
		s.metrics.ResumeFailures.Inc()
		s.refuseConn(conn, wc, code, refusal)
		s.entomb(sess, false)
		return
	}
	if !s.attach(sess, conn, wc) {
		s.metrics.ResumeFailures.Inc()
		s.refuseConn(conn, wc, wire.CodeOverload, "server draining")
		sess.release()
		return
	}
	// Each failure path below parks the session, after which a concurrent
	// resume may adopt it and replace attachDone: close this attachment's
	// channel through a local, never through the session.
	done := sess.attachDone

	ack := wire.ResumeAck{Intervals: sess.interval, StreamPos: pos, Shed: sess.shed.Load()}
	if err := wc.WriteFrame(wire.MsgResumeAck, wire.AppendResumeAck(nil, ack)); err != nil {
		s.logf("session %d: writing resume-ack: %v", sess.id, err)
		s.entomb(sess, true)
		close(done)
		return
	}
	// Resend every logged frame after the client's last profile, as first
	// sent: that boundary's notices, which the cut connection may have lost
	// even though the profile arrived, then every later profile and notice.
	// The client drops the notices it already holds.
	resend := sess.interval - r.Intervals
	held := kept - int(resend) // logged profiles the client holds
	for _, e := range sess.log {
		if held > 0 {
			if e[0] == wire.MsgProfile {
				held--
			}
			continue
		}
		if err := wc.WriteFrame(e[0], e[1:]); err != nil {
			s.logf("session %d: resending: %v", sess.id, err)
			s.entomb(sess, true)
			close(done)
			return
		}
		if e[0] == wire.MsgProfile {
			s.metrics.IntervalsTotal.Inc()
		}
	}
	s.metrics.ResumesTotal.Inc()
	s.logf("session %d: resumed from %s at interval %d+%d (stream pos %d), resent %d profile(s)",
		sess.id, conn.RemoteAddr(), sess.interval, sess.events, pos, resend)
	sess.serve()
}

// serve runs one attachment to completion: the worker spun off, the reader
// loop in the foreground, then the park-or-remove verdict.
func (s *session) serve() {
	defer s.finishAttachment()
	defer s.recoverPanic("session")
	done := make(chan struct{})
	go s.work(done)
	s.read()
	<-done // the worker owns the engine and the final frames
}

// finishAttachment settles the attachment after both goroutines exited:
// park the session (stream failure, resumable) or remove it (finished or
// failed). attachDone is closed last so the resume path can wait for the
// verdict to be fully applied. Once parked, the session may already be
// adopted by a resume, so the channel to close is read beforehand.
func (s *session) finishAttachment() {
	done := s.attachDone
	if s.gateOn {
		s.gateOn = false
		s.srv.metrics.ShedSessions.Add(-1)
	}
	if s.parkNext.Load() {
		s.srv.entomb(s, true)
	} else {
		s.conn.Close()
		s.srv.removeSession(s)
	}
	close(done)
}

// read is the reader loop: decode frames, enqueue work. It exits on drain,
// goodbye, or failure — always after handing the worker a final control
// item — and closes the queue on the way out (it is the sole producer), so
// the worker always terminates.
func (s *session) read() {
	defer close(s.queue)
	defer s.recoverPanic("reader")
	for {
		if s.draining.Load() {
			// Shutdown began between frames. The per-operation deadline
			// wrapper re-arms a fresh read deadline on every Read, so
			// beginDrain's immediate-deadline fallback only interrupts a
			// read in flight — a reader kept busy by an actively writing
			// client must notice the drain itself.
			s.enqueue(item{drain: true})
			return
		}
		typ, payload, err := s.wc.ReadFrame()
		if err != nil {
			s.readFailed(err)
			return
		}
		switch typ {
		case wire.MsgBatch:
			buf := s.srv.batchPool.Get().(*[]event.Tuple)
			*buf, err = wire.DecodeBatch(payload, (*buf)[:0])
			if err != nil {
				s.srv.batchPool.Put(buf)
				s.srv.metrics.CorruptFrames.Inc()
				// The frame's checksum passed, so the bytes arrived as sent:
				// an undecodable batch is a peer bug, not transport damage.
				s.enqueue(item{err: fmt.Errorf("undecodable batch: %w", err), code: wire.CodeProtocol})
				return
			}
			s.enqueueBatch(buf)
		case wire.MsgMark:
			m, err := wire.DecodeMark(payload)
			if err != nil {
				s.srv.metrics.CorruptFrames.Inc()
				s.enqueue(item{err: fmt.Errorf("undecodable mark: %w", err), code: wire.CodeProtocol})
				return
			}
			s.enqueue(item{mark: true, markIdx: m.Index})
		case wire.MsgDrain:
			s.enqueue(item{drain: true})
			return
		case wire.MsgGoodbye:
			s.enqueue(item{goodbye: true})
			return
		default:
			s.enqueue(item{err: fmt.Errorf("unexpected frame type %d", typ), code: wire.CodeProtocol})
			return
		}
	}
}

// readFailed classifies a reader failure and hands the worker the
// consequence: a server-initiated drain turns a closed read side into a
// graceful finish; transport failures — corruption, disconnect, timeout —
// are parkable; only sticky protocol state would not be, and that is
// classified at decode time, not here.
func (s *session) readFailed(err error) {
	if s.draining.Load() {
		// Shutdown closed the read side; finish like a client drain.
		s.enqueue(item{drain: true})
		return
	}
	switch {
	case errors.Is(err, wire.ErrCorrupt):
		s.srv.metrics.CorruptFrames.Inc()
		s.enqueue(item{err: fmt.Errorf("corrupt frame: %w", err), code: wire.CodeCorrupt, park: true})
	case errors.Is(err, io.EOF):
		// Disconnect without goodbye: mid-stream failure, not a clean end.
		s.enqueue(item{err: errors.New("client disconnected mid-stream"), park: true})
	default:
		s.enqueue(item{err: fmt.Errorf("read failed: %w", err), park: true})
	}
}

// enqueue hands the worker a control item, blocking until it fits: control
// items are never shed, whatever the backpressure policy or gate state.
func (s *session) enqueue(it item) {
	s.srv.metrics.QueueDepth.Add(1)
	s.queue <- it
}

// enqueueBatch hands the worker a batch under the backpressure policy.
// Block (default) stalls the socket — and through it, via TCP, the client.
// Shed runs a hysteresis gate over observed queue pressure: the gate
// engages at the high watermark and drops whole batches (counted, and
// reported in every Profile) until pressure falls to the low watermark, so
// a session hovering at the boundary does not flap between policies.
func (s *session) enqueueBatch(buf *[]event.Tuple) {
	n := uint64(len(*buf))
	if !s.srv.cfg.Shed {
		s.srv.metrics.QueueDepth.Add(1)
		s.queue <- item{batch: buf}
		s.streamPos.Add(n)
		return
	}
	if s.gateOn {
		if len(s.queue) <= s.srv.cfg.ShedLowWater {
			s.setGate(false)
		}
	} else if len(s.queue) >= s.srv.cfg.ShedHighWater {
		s.setGate(true)
	}
	if s.gateOn {
		s.dropBatch(buf, n)
		return
	}
	select {
	case s.queue <- item{batch: buf}:
		s.srv.metrics.QueueDepth.Add(1)
		s.streamPos.Add(n)
	default:
		// The queue filled between the watermark check and the send; that
		// is real pressure, engage rather than block.
		s.setGate(true)
		s.dropBatch(buf, n)
	}
}

// setGate flips the shed gate, counting the transition.
func (s *session) setGate(on bool) {
	s.gateOn = on
	if on {
		s.srv.metrics.ShedEngaged.Inc()
		s.srv.metrics.TenantShedEngaged.With(s.tenant).Inc()
		s.srv.metrics.ShedSessions.Add(1)
		s.srv.logf("session %d: shed gate engaged at queue length %d", s.id, len(s.queue))
	} else {
		s.srv.metrics.ShedDisengaged.Inc()
		s.srv.metrics.ShedSessions.Add(-1)
		s.srv.logf("session %d: shed gate disengaged at queue length %d", s.id, len(s.queue))
	}
}

// dropBatch sheds a batch: counted against the session and the stream
// position (the events were consumed, just not observed), buffer recycled.
func (s *session) dropBatch(buf *[]event.Tuple, n uint64) {
	s.shed.Add(n)
	s.streamPos.Add(n)
	s.srv.metrics.EventsShed.Add(n)
	s.srv.metrics.TenantEventsShed.With(s.tenant).Add(n)
	*buf = (*buf)[:0]
	s.srv.batchPool.Put(buf)
}

// work runs the worker loop, then — whatever ended it, including a
// contained panic — keeps consuming the queue until the reader closes it,
// so the reader can never block on a dead worker.
func (s *session) work(done chan<- struct{}) {
	defer close(done)
	s.workLoop()
	for it := range s.queue {
		s.srv.metrics.QueueDepth.Add(-1)
		if it.batch != nil {
			*it.batch = (*it.batch)[:0]
			s.srv.batchPool.Put(it.batch)
		}
	}
}

// parkable reports whether a stream failure may park the session instead
// of tearing it down: resumption on, not draining, engine healthy.
func (s *session) parkable() bool {
	return s.srv.cfg.resumeEnabled() && !s.srv.draining.Load() && s.eng.Err() == nil
}

// workLoop is the worker: feed the engine, place interval boundaries,
// write profiles. It is the connection's only writer after the HelloAck.
// It returns at a terminal item (drain, goodbye, failure) or a session
// failure, leaving what follows in the queue to work. Because the reader
// enqueues its failure item after every batch it accepted, a park verdict
// always finds the engine caught up with everything the client was told
// (through streamPos accounting) the server consumed.
func (s *session) workLoop() {
	defer s.recoverPanic("worker")

	for it := range s.queue {
		s.srv.metrics.QueueDepth.Add(-1)
		switch {
		case it.err != nil:
			if it.park && s.parkable() {
				if it.code != 0 && !s.connDead {
					// Transport corruption with a live write side: tell the
					// client to reconnect and resume.
					s.wc.WriteFrame(wire.MsgError, wire.AppendError(s.enc[:0],
						wire.ErrorMsg{Code: it.code, Msg: it.err.Error()}))
				}
				s.srv.logf("session %d: parking: %v", s.id, it.err)
				s.parkNext.Store(true)
			} else {
				s.fail(it.err, it.code)
			}
			return
		case it.mark:
			switch {
			case !s.marked:
				s.fail(errors.New("mark on a session not opened marked"), wire.CodeProtocol)
				return
			case it.markIdx != s.interval:
				// A desynchronized coordinator must surface as a protocol
				// error, not as misaligned fleet epochs.
				s.fail(fmt.Errorf("mark closes interval %d, server is at %d", it.markIdx, s.interval),
					wire.CodeProtocol)
				return
			case !s.emitProfile(false):
				return
			}
			s.interval++
			s.events = 0
		case it.goodbye:
			s.srv.logf("session %d: goodbye, %d interval(s)", s.id, s.interval)
			s.endClean = s.events == 0
			s.eng.Close()
			s.endJournal()
			return
		case it.drain:
			s.endClean = s.events == 0
			s.finish()
			s.endJournal()
			return
		default:
			ok := s.observe(*it.batch)
			*it.batch = (*it.batch)[:0]
			s.srv.batchPool.Put(it.batch)
			if !ok {
				return
			}
		}
	}
	if !s.parkNext.Load() {
		// Queue closed without a terminal item (contained reader panic):
		// nothing more is coming; discard the unfinished interval.
		s.eng.Close()
	}
}

// observe feeds one batch to the engine, reporting whether the worker
// should continue.
func (s *session) observe(batch []event.Tuple) bool {
	s.srv.metrics.BatchesTotal.Inc()
	s.srv.metrics.EventsTotal.Add(uint64(len(batch)))
	if s.marked {
		// The client owns the boundaries: observe the whole batch, wait
		// for its MsgMark.
		s.eng.ObserveBatch(batch)
		s.events += uint64(len(batch))
		s.observed += uint64(len(batch))
		if !s.journalBatch(batch) {
			return false
		}
		batch = nil
	}
	// Clip at interval boundaries exactly like core.RunBatchedContext,
	// so boundary placement — and hence every profile — matches a
	// local run over the same stream.
	for len(batch) > 0 {
		n := uint64(len(batch))
		if remaining := s.cfg.IntervalLength - s.events; n > remaining {
			n = remaining
		}
		s.eng.ObserveBatch(batch[:n])
		s.events += n
		s.observed += n
		if !s.journalBatch(batch[:n]) {
			return false
		}
		batch = batch[n:]
		if s.events == s.cfg.IntervalLength {
			if !s.emitProfile(false) {
				return false
			}
			s.interval++
			s.events = 0
			// Boundary actions: apply a staged operator resize, then let
			// the elastic controller act on this interval's signals. Any
			// committed geometry change takes effect for the remainder of
			// this batch — the clip loop re-reads cfg.IntervalLength —
			// exactly as a cold start at this stream offset would.
			if !s.boundaryActions() {
				return false
			}
		}
	}
	if err := s.eng.Err(); err != nil {
		s.fail(fmt.Errorf("engine failed: %w", err), wire.CodeInternal)
		return false
	}
	return true
}

// emitProfile ends the engine's interval and sends the profile frame,
// recycling the profile map back into the engine. A complete interval's
// frame is logged, then journaled, then sent. It reports whether the
// worker should continue.
func (s *session) emitProfile(final bool) bool {
	start := time.Now()
	var prof map[event.Tuple]uint64
	if final {
		prof, _ = s.eng.Drain() // the engine's terminal error was already polled per batch
	} else {
		prof = s.eng.EndInterval()
	}
	shed := s.shed.Load()
	msg := wire.ProfileMsg{Index: s.interval, Shed: shed, Final: final, Counts: prof}
	s.enc = wire.AppendProfile(s.enc[:0], msg)
	if !final {
		s.logFrame(wire.MsgProfile, s.enc)
		if s.jw != nil {
			// The boundary must be durable (per the sync policy) before the
			// profile frame reaches the client: once the client sees the
			// profile it prunes its replay buffer past this interval, and a
			// crashed daemon that lost the boundary could no longer reach a
			// state the pruned client can resume against. The log rides in
			// the boundary's rotation checkpoint, so it is updated first.
			if err := s.jw.Boundary(s.interval, shed, s.enc, s.log); err != nil {
				s.fail(fmt.Errorf("journal: %w", err), wire.CodeInternal)
				return false
			}
		}
		if s.pub != "" {
			// Merge this interval into its fleet epoch. The feed copies the
			// counts before returning, so the map is still recyclable.
			s.srv.feed.Report(s.pub, s.pubBase+s.interval, prof, nil)
		}
		if s.elastic != nil {
			s.distinct, s.variation = s.elastic.ObserveProfile(prof, s.cfg.ThresholdCount())
		}
		s.eng.Recycle(prof) // encoded; hand the map back for the next boundary
	}
	if !s.send(wire.MsgProfile, s.enc, !final) {
		return false
	}
	if !s.connDead {
		s.srv.metrics.IntervalsTotal.Inc()
		s.srv.metrics.IntervalLatency.Observe(time.Since(start).Seconds())
	}
	return true
}

// send writes one frame to the client unless the write side is already
// dead, reporting whether the worker should continue. When a write fails
// and the frame may park — a logged frame on a parkable session — the
// attachment flips into connDead mode: the engine keeps consuming the
// queue so the stream position stays exact, frames land in the log only,
// and the reader's subsequent failure parks the session. Any other failed
// write is a session error that stops the worker.
func (s *session) send(typ byte, payload []byte, park bool) bool {
	if s.connDead {
		return true
	}
	err := s.wc.WriteFrame(typ, payload)
	if err == nil {
		return true
	}
	s.srv.logf("session %d: writing frame type %d at interval %d: %v", s.id, typ, s.interval, err)
	if park && s.parkable() {
		s.connDead = true
		s.parkNext.Store(true)
		s.conn.Close() // surface the failure to the reader too
		return true
	}
	s.srv.metrics.SessionErrors.Inc()
	s.eng.Close()
	// Close the conn too: a client that keeps writing would otherwise
	// hold the reader — and through it the attachment — alive forever.
	s.conn.Close()
	return false
}

// logFrame appends one boundary frame to a resumable session's send log.
// A profile that would make the log hold more than ResumeWindow profiles
// first drops the log's prefix through its oldest profile, whose buffer
// the new entry reuses; the notices after that profile stay, since they
// belong to the boundary whose profile a client at the window's edge
// already holds. The live worker and the journal replay both log here.
func (s *session) logFrame(typ byte, payload []byte) {
	if !s.srv.cfg.resumeEnabled() {
		return
	}
	var buf []byte
	if typ == wire.MsgProfile && s.loggedProfiles() >= s.srv.cfg.ResumeWindow {
		i := 0
		for s.log[i][0] != wire.MsgProfile {
			i++
		}
		buf = s.log[i][:0]
		s.log = append(s.log[:0], s.log[i+1:]...)
	}
	s.log = append(s.log, append(append(buf, typ), payload...))
}

// loggedProfiles counts the profiles in the send log.
func (s *session) loggedProfiles() int {
	n := 0
	for _, e := range s.log {
		if e[0] == wire.MsgProfile {
			n++
		}
	}
	return n
}

// journalBatch mirrors an engine-observed slice into the session journal,
// reporting whether the worker should continue. A journal append failure
// is an internal session failure: the daemon promised durability for this
// session and can no longer keep it, so the session ends rather than
// silently degrading to in-memory-only.
func (s *session) journalBatch(events []event.Tuple) bool {
	if s.jw == nil {
		return true
	}
	if err := s.jw.Batch(events, s.shed.Load()); err != nil {
		s.fail(fmt.Errorf("journal: %w", err), wire.CodeInternal)
		return false
	}
	return true
}

// endJournal closes out the session journal after a clean end (goodbye or
// drain): the client acknowledged everything there was to deliver, so
// there is nothing left for a restarted daemon to recover. Errors are
// logged only — the session itself ended fine. jw stays set: Kill reads it
// from another goroutine, and an ended writer's Close and Abandon are
// no-ops.
func (s *session) endJournal() {
	if s.jw == nil {
		return
	}
	if err := s.jw.End(); err != nil {
		s.srv.logf("session %d: ending journal: %v", s.id, err)
	}
	if err := journal.Remove(s.srv.journal.Dir, s.id); err != nil {
		s.srv.logf("session %d: removing journal: %v", s.id, err)
	}
}

// finish is the graceful end: drain the engine, send the final partial
// profile and the goodbye. With a dead write side there is no one to send
// to; the engine is simply discarded.
func (s *session) finish() {
	if s.connDead {
		s.eng.Close()
		return
	}
	if !s.emitProfile(true) {
		return
	}
	// Leave the feed before the goodbye, so a client whose Drain returned
	// finds the departure already recorded.
	s.leaveFeed()
	if s.send(wire.MsgGoodbye, nil, false) {
		s.srv.logf("session %d: drained, %d complete interval(s)", s.id, s.interval)
	}
}

// leaveFeed records the session's departure from the epoch feed, once:
// from finish on a drain, otherwise from release.
func (s *session) leaveFeed() {
	if s.pub != "" && !s.left {
		s.left = true
		s.srv.feed.Leave(s.pub, s.endClean)
	}
}

// fail tears the session down after a peer bug or engine failure,
// best-effort reporting it to the client first when a wire error code was
// assigned.
func (s *session) fail(err error, code byte) {
	s.srv.metrics.SessionErrors.Inc()
	s.srv.logf("session %d: failed: %v", s.id, err)
	if code != 0 && !s.connDead {
		s.wc.WriteFrame(wire.MsgError, wire.AppendError(s.enc[:0], wire.ErrorMsg{Code: code, Msg: err.Error()}))
	}
	s.eng.Close()
	s.conn.Close() // unblock the reader, if it is still in ReadFrame
}

// beginDrain asks the session to finish as a client Drain would: the read
// side is closed so the reader unblocks and (seeing draining) queues a
// drain item; the worker then drains the engine and sends the final frames.
func (s *session) beginDrain() {
	s.draining.Store(true)
	if tc, ok := s.conn.(*net.TCPConn); ok {
		tc.CloseRead()
	} else {
		s.conn.SetReadDeadline(time.Now())
	}
}

// recoverPanic contains a panic on a session goroutine: counted, logged,
// best-effort reported, session torn down — the daemon and every other
// session keep running. A panicked attachment never parks; whatever state
// the panic left behind is not worth resuming into.
func (s *session) recoverPanic(where string) {
	if r := recover(); r != nil {
		s.parkNext.Store(false)
		s.srv.metrics.SessionErrors.Inc()
		s.srv.logf("session %d: %s panic contained: %v", s.id, where, r)
		s.wc.WriteFrame(wire.MsgError, wire.AppendError(nil,
			wire.ErrorMsg{Code: wire.CodeInternal, Msg: fmt.Sprint(r)}))
		if s.eng != nil {
			s.eng.Close()
		}
		s.conn.Close()
	}
}
