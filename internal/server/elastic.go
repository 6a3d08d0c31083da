package server

import (
	"fmt"

	"hwprof/internal/adaptive"
	"hwprof/internal/journal"
	"hwprof/internal/shard"
	"hwprof/internal/wire"
)

// Elastic serving: the worker-side drive for the adaptive controller and
// the park-and-restage resize cycle. All functions here that touch the
// engine run on the session's worker goroutine, at an interval boundary —
// the one place a resize is bit-identical to a cold start: events == 0, the
// journal holds a durable boundary record, and the retained candidates are
// about to be discarded by EndInterval anyway, so a fresh engine at the new
// geometry observes exactly what a daemon started at this stream offset
// would.

// opOperator labels a resize staged through Server.ResizeSession rather
// than proposed by the controller.
const opOperator adaptive.Op = "operator-resize"

// rungLabel names a degradation-ladder rung for the per-rung gauge.
func rungLabel(r int) string {
	switch r {
	case adaptive.RungFull:
		return "full"
	case adaptive.RungShed:
		return "shed"
	case adaptive.RungCoarse:
		return "coarse"
	case adaptive.RungShrunk:
		return "shrunk"
	case adaptive.RungParked:
		return "parked"
	}
	return "unknown"
}

// journalOptsFor wraps the server's journal options so appends also count
// against the tenant's journal-bytes counter.
func (s *Server) journalOptsFor(tenant string) journal.Options {
	opts := s.journal
	base := opts.OnAppend
	tv := s.metrics.TenantJournalBytes.With(tenant)
	opts.OnAppend = func(n int64) {
		if base != nil {
			base(n)
		}
		if n > 0 {
			tv.Add(uint64(n))
		}
	}
	return opts
}

// geometry is the session's current engine shape in the controller's terms.
func (s *session) geometry() adaptive.Geometry {
	return adaptive.Geometry{
		IntervalLength: s.cfg.IntervalLength,
		TotalEntries:   s.cfg.TotalEntries,
		Shards:         s.shards,
	}
}

// newElastic builds the session's online controller. The CanAfford closure
// reads sess.cfg and sess.cost — worker-owned state — which is safe because
// the controller only runs on the worker goroutine.
func (s *Server) newElastic(sess *session) *adaptive.Elastic {
	return adaptive.NewElastic(adaptive.ElasticConfig{
		Admitted:  sess.geometry(),
		Tables:    sess.cfg.NumTables,
		MaxShards: s.cfg.MaxShards,
		HighWater: s.cfg.ShedHighWater,
		LowWater:  s.cfg.ShedLowWater,
		Engage:    s.cfg.ElasticEngage,
		Release:   s.cfg.ElasticRelease,
		Settle:    s.cfg.ElasticSettle,
		CanAfford: func(g adaptive.Geometry) bool {
			cfg := sess.cfg
			cfg.IntervalLength = g.IntervalLength
			cfg.TotalEntries = g.TotalEntries
			return s.admission.fits(sess.tenant, sess.cost, sessionCost(cfg, g.Shards))
		},
		// Publishing sessions pin their interval: it is the fleet epoch
		// contract, and a coarsened interval would desynchronize the feed.
		FixedInterval: sess.pub != "",
		Shed:          s.cfg.Shed,
	})
}

// ResizeSession stages a new geometry for session id. The worker applies it
// at its next interval boundary through the same commit path the controller
// uses — re-price, fresh engine, durable journal record, client notice — so
// an operator resize carries the identical bit-identity guarantee.
// Asynchronous: the client observes the result as a NoticeResize; a
// geometry the worker cannot apply (invalid config) is logged and dropped.
// Staging onto a parked session is allowed — it takes effect at the first
// boundary after resumption.
func (s *Server) ResizeSession(id, intervalLength uint64, entries, shards int) error {
	s.mu.Lock()
	sess := s.sessions[id]
	if sess == nil {
		sess = s.tombs[id]
	}
	s.mu.Unlock()
	if sess == nil {
		return fmt.Errorf("server: unknown session %d", id)
	}
	if sess.marked {
		return fmt.Errorf("server: session %d is marked; its boundaries belong to the client", id)
	}
	g := adaptive.Geometry{IntervalLength: intervalLength, TotalEntries: entries, Shards: shards}
	sess.pendingResize.Store(&g)
	return nil
}

// validGeometry normalizes and validates a staged geometry against the
// session's fixed configuration, fitting the shard count the way admission
// does. Worker goroutine only (reads s.cfg).
func (s *session) validGeometry(g *adaptive.Geometry) (ok bool, why string) {
	g.Shards = adaptive.ClampShards(min(g.Shards, s.srv.cfg.MaxShards), g.TotalEntries)
	cfg := s.cfg
	cfg.IntervalLength = g.IntervalLength
	cfg.TotalEntries = g.TotalEntries
	if err := cfg.Validate(); err != nil {
		return false, err.Error()
	}
	return true, ""
}

// boundaryActions runs at every worker-placed interval boundary, after the
// profile was emitted and the interval counter advanced: first any staged
// operator resize, then one controller step. It reports whether the worker
// should continue; false means the session failed (journal write) and the
// attachment is dead.
func (s *session) boundaryActions() bool {
	if gp := s.pendingResize.Swap(nil); gp != nil {
		g := *gp
		if ok, why := s.validGeometry(&g); !ok {
			s.srv.logf("session %d: staged resize dropped: %s", s.id, why)
		} else if g != s.geometry() {
			a := adaptive.Action{Op: opOperator, Geometry: g, Rung: int(s.rung.Load()),
				Reason: fmt.Sprintf("operator resize to interval %d, %d entries, %d shard(s)",
					g.IntervalLength, g.TotalEntries, g.Shards)}
			if !s.commitResize(a, false) {
				return false
			}
		}
	}
	if s.elastic == nil {
		return true
	}
	shed := s.shed.Load()
	sig := adaptive.Signals{
		Cur:       s.geometry(),
		QueueLen:  len(s.queue),
		ShedDelta: shed - s.lastShed,
		Distinct:  s.distinct,
		Variation: s.variation,
	}
	s.lastShed = shed
	a, ok := s.elastic.Boundary(sig)
	if !ok {
		return true
	}
	return s.applyAction(a)
}

// applyAction dispatches one controller proposal.
func (s *session) applyAction(a adaptive.Action) bool {
	cur := s.geometry()
	if a.Resizes(cur) {
		return s.commitResize(a, true)
	}
	// Rung-only transitions: no engine rebuild, nothing to re-price or
	// journal — the geometry in the notice restates the current shape.
	s.elastic.Commit(a, cur)
	s.setRung(a.Rung)
	s.srv.metrics.ElasticActions.With(string(a.Op)).Inc()
	switch a.Op {
	case adaptive.OpPark:
		s.sendNotice(wire.NoticePark, a)
		if s.connDead {
			break // the failed notice write already staged the park
		}
		// Flip into connDead mode FIRST: a later profile write failing
		// would full-Close the socket with unread inbound batches, and
		// that RST can destroy the park notice still buffered on the
		// client side. With connDead set the worker ring-buffers instead
		// of writing, and parkNext makes the eventual reader failure park
		// rather than remove the session.
		s.connDead = true
		s.parkNext.Store(true)
		// End the connection with a half-close where the transport allows
		// it: the FIN delivers the notice ahead of the EOF. The client
		// drops the connection, the reader fails with a parkable error,
		// and the worker keeps draining queued batches into the engine
		// before the park verdict lands — the same machinery a dropped
		// connection runs — so the parked stream position stays exact.
		if cw, ok := s.conn.(interface{ CloseWrite() error }); ok {
			if cw.CloseWrite() == nil {
				break
			}
		}
		s.conn.Close()
	default: // OpShed, rung-only OpRestore
		s.sendNotice(wire.NoticeDegrade, a)
	}
	return true
}

// commitResize applies a geometry change through the park-and-restage
// cycle: re-price admission, build the fresh engine, make the resize
// durable, then swap — in that order, so a crash at any point leaves a
// journal that recovers to a consistent geometry the client can resume
// against. proposed says the action came from the controller and must be
// answered with Commit or Refuse. Returns false only when the session
// failed (journal append) and the worker must stop.
func (s *session) commitResize(a adaptive.Action, proposed bool) bool {
	cur := s.geometry()
	newCfg := s.cfg
	newCfg.IntervalLength = a.Geometry.IntervalLength
	newCfg.TotalEntries = a.Geometry.TotalEntries
	newShards := a.Geometry.Shards
	newCost := sessionCost(newCfg, newShards)
	m := s.srv.metrics

	if ok, reason := s.srv.admission.reprice(s.tenant, s.cost, newCost); !ok {
		m.ElasticRefused.Inc()
		s.srv.logf("session %d: %s refused: %s", s.id, a.Op, reason)
		if proposed {
			s.elastic.Refuse()
		}
		return true
	}
	eng, err := shard.New(shard.Config{Core: newCfg, NumShards: newShards})
	if err != nil {
		// Undo the re-price unconditionally: the ledger must match the
		// engine we actually still run.
		s.srv.admission.release(s.tenant, newCost-s.cost)
		m.ElasticRefused.Inc()
		s.srv.logf("session %d: %s: rebuilding engine: %v", s.id, a.Op, err)
		if proposed {
			s.elastic.Refuse()
		}
		return true
	}
	if s.jw != nil {
		// The resize record must be durable before any effect is visible:
		// a crash before it recovers the old geometry (the client never saw
		// the notice); a crash after it rebuilds the new one and the
		// resume ack re-anchors the client.
		if err := s.jw.Resize(wire.Hello{Config: newCfg, Shards: newShards, Marked: s.marked}); err != nil {
			eng.Close()
			s.srv.admission.release(s.tenant, newCost-s.cost)
			s.fail(fmt.Errorf("journal: %w", err), wire.CodeInternal)
			return false
		}
	}
	s.eng.Close()
	s.eng = eng
	s.cfg = newCfg
	s.shards = newShards
	s.cost = newCost

	kind := byte(wire.NoticeResize)
	switch a.Op {
	case adaptive.OpCoarsen, adaptive.OpShrinkTables, adaptive.OpRestore:
		kind = wire.NoticeDegrade
	}
	s.sendNotice(kind, a)
	if s.elastic != nil {
		s.elastic.Commit(a, cur)
	}
	s.setRung(a.Rung)
	m.ElasticResizes.Inc()
	m.TenantResizes.With(s.tenant).Inc()
	m.ElasticActions.With(string(a.Op)).Inc()
	s.srv.logf("session %d: %s committed at interval %d: %v, %d shard(s), cost %.3f",
		s.id, a.Op, s.interval, newCfg, newShards, newCost)
	return true
}

// sendNotice writes a MsgNotice snapshot of the boundary the worker just
// placed: interval s.interval-1 closed, the current geometry in force from
// s.interval on. A resumable session keeps the frame for redelivery on
// resume, written or not. A write failure on a resumable session flips the
// attachment into connDead mode exactly as a failed profile write would.
func (s *session) sendNotice(kind byte, a adaptive.Action) {
	n := wire.Notice{
		Kind:           kind,
		Rung:           byte(a.Rung),
		Index:          s.interval - 1,
		Observed:       s.observed,
		Shed:           s.shed.Load(),
		IntervalLength: s.cfg.IntervalLength,
		TotalEntries:   s.cfg.TotalEntries,
		NumTables:      s.cfg.NumTables,
		Shards:         s.shards,
		Reason:         a.Reason,
	}
	s.enc = wire.AppendNotice(s.enc[:0], n)
	if s.srv.cfg.resumeEnabled() {
		s.notices = append(s.notices, keptNotice{index: n.Index, frame: append([]byte(nil), s.enc...)})
	}
	if s.connDead {
		return
	}
	if err := s.wc.WriteFrame(wire.MsgNotice, s.enc); err != nil {
		s.srv.logf("session %d: writing notice: %v", s.id, err)
		if s.parkable() {
			s.connDead = true
			s.parkNext.Store(true)
			s.conn.Close()
			return
		}
		s.srv.metrics.SessionErrors.Inc()
		s.conn.Close()
	}
}

// setRung moves the session to ladder rung r, keeping the per-rung and
// per-tenant degradation gauges exact.
func (s *session) setRung(r int) {
	old := int(s.rung.Swap(int32(r)))
	if old == r {
		return
	}
	m := s.srv.metrics
	m.LadderRung.With(rungLabel(old)).Add(-1)
	m.LadderRung.With(rungLabel(r)).Add(1)
	if old == 0 && r > 0 {
		m.TenantDegraded.With(s.tenant).Add(1)
	} else if old > 0 && r == 0 {
		m.TenantDegraded.With(s.tenant).Add(-1)
	}
}
