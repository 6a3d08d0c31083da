package server

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"hwprof/internal/event"
	"hwprof/internal/journal"
	"hwprof/internal/wire"
)

// Recovery: a restarted daemon rebuilds crashed sessions from their
// write-ahead journals. Each journal replays through a fresh engine — the
// same batches through the same deterministic pipeline reproduce the same
// counter state bit for bit, which is verified at every boundary by
// re-encoding the replayed interval profile and byte-comparing it against
// the frame the crashed daemon journaled (profile encoding sorts its
// entries, so equal profiles encode equally). Recovered sessions are
// re-parked under the ordinary resume machinery: to a reconnecting client
// the daemon crash is indistinguishable from a dropped connection.
//
// Publishing sessions also re-pin their fleet epochs. The feed restarts
// empty, so each recovered publisher re-joins at the epoch of its replay
// entry point (JoinAt — epochs below it are not awaited and close empty;
// an aggregator resubscribes above them, so it never sees the difference)
// and every replayed interval profile is re-reported. Reports interleave
// in ascending epoch order across sessions, after every publisher has
// re-joined, so no epoch closes before a recovered contributor reaches it
// and the re-closed epochs merge exactly the counts the originals did.
// Sessions that ended cleanly before the crash have no journal left and
// are not re-reported — an aggregator that had not yet consumed epochs
// they contributed to sees those epochs re-close without them (partial,
// with the member gone). That is the one epoch-level difference a crash
// can leave behind.

// recoveredReport is one replayed interval profile destined for the epoch
// feed.
type recoveredReport struct {
	pub    string
	epoch  uint64
	counts map[event.Tuple]uint64
}

// recoverHandler replays one session's journal into the session itself,
// implementing journal.Handler: the engine is built and re-staged through
// the Hello path's restage, and replayed frames are kept through the live
// worker's keepProfile.
type recoverHandler struct {
	sess       *session
	firstEpoch uint64 // epoch of the replay entry point
	reports    []recoveredReport
}

func (h *recoverHandler) Start(meta journal.Meta, state journal.State) error {
	sess := h.sess
	if err := sess.restage(meta.Hello); err != nil {
		return fmt.Errorf("journaled config: %w", err)
	}
	sess.marked = meta.Hello.Marked
	sess.tenant = meta.Tenant
	sess.pubBase = meta.PubBase
	sess.ring = state.Ring
	if meta.Pub && sess.srv.feed != nil {
		sess.pub = sess.srv.pubName(meta.SessionID)
		h.firstEpoch = meta.PubBase + state.Interval
	}
	return nil
}

func (h *recoverHandler) Batch(events []event.Tuple) error {
	h.sess.eng.ObserveBatch(events)
	h.sess.events += uint64(len(events))
	return h.sess.eng.Err()
}

// Resize re-stages the replay engine at the journaled geometry, exactly as
// the crashed daemon's worker did at this boundary: the old engine (and its
// retained candidates) is discarded outright and a fresh one continues.
func (h *recoverHandler) Resize(hello wire.Hello) error {
	if h.sess.events != 0 {
		return fmt.Errorf("resize record %d event(s) into an interval; resizes only happen at boundaries", h.sess.events)
	}
	if err := h.sess.restage(hello); err != nil {
		return fmt.Errorf("journaled resize: %w", err)
	}
	return nil
}

func (h *recoverHandler) Boundary(index, shed uint64, profile []byte) error {
	sess := h.sess
	prof := sess.eng.EndInterval()
	if err := sess.eng.Err(); err != nil {
		return err
	}
	sess.enc = wire.AppendProfile(sess.enc[:0], wire.ProfileMsg{Index: index, Shed: shed, Counts: prof})
	if !bytes.Equal(sess.enc, profile) {
		// The replayed engine did not reproduce the profile the client was
		// sent — resuming it would break the bit-identity contract.
		return fmt.Errorf("replay diverged at interval %d: re-encoded profile does not match the journaled frame", index)
	}
	if sess.pub != "" {
		h.reports = append(h.reports, recoveredReport{pub: sess.pub, epoch: sess.pubBase + index, counts: prof})
	} else {
		sess.eng.Recycle(prof)
	}
	sess.keepProfile(index, profile)
	sess.events = 0
	return nil
}

// Recover scans the journal directory and replays every crashed session
// back into a parked tombstone, returning how many sessions were
// recovered. Call it after New and before Serve: recovered sessions enter
// the resume-grace window immediately, and their clients' Resume frames
// must find them registered. A journal that cannot be recovered —
// unreplayable, diverged, or refused admission — is counted, logged and
// removed; its client's Resume is refused like any expired tombstone's.
func (s *Server) Recover() (int, error) {
	if !s.journaling() {
		return 0, nil
	}
	if !s.cfg.resumeEnabled() {
		return 0, errors.New("server: journal recovery requires resume (ResumeGrace must not be negative)")
	}
	ids, err := journal.ScanDir(s.journal.Dir)
	if err != nil {
		return 0, err
	}
	var recovered []*recoverHandler
	var reports []recoveredReport
	for _, id := range ids {
		h, err := s.recoverSession(id)
		if err != nil {
			s.metrics.JournalRecoverFailures.Inc()
			s.logf("session %d: recovery failed: %v", id, err)
			if rmErr := journal.Remove(s.journal.Dir, id); rmErr != nil {
				s.logf("session %d: removing unrecoverable journal: %v", id, rmErr)
			}
			continue
		}
		if h == nil {
			// The journal records a clean end: the client got everything.
			if rmErr := journal.Remove(s.journal.Dir, id); rmErr != nil {
				s.logf("session %d: removing ended journal: %v", id, rmErr)
			}
			continue
		}
		recovered = append(recovered, h)
		reports = append(reports, h.reports...)
	}

	// Re-pin fleet epochs: every publisher joins first, then the replayed
	// profiles re-report in ascending epoch order across sessions — an
	// epoch may only close once everyone who will contribute to it has
	// both joined and reported.
	if s.feed != nil {
		for _, h := range recovered {
			if h.sess.pub != "" {
				s.feed.JoinAt(h.sess.pub, h.firstEpoch)
			}
		}
		sort.SliceStable(reports, func(i, j int) bool { return reports[i].epoch < reports[j].epoch })
		for _, r := range reports {
			s.feed.Report(r.pub, r.epoch, r.counts, nil)
		}
	}

	n := 0
	for _, h := range recovered {
		s.logf("session %d: recovered from its journal", h.sess.id)
		if s.entomb(h.sess, false) {
			s.metrics.JournalRecovered.Inc()
			n++
		}
	}
	return n, nil
}

// recoverSession replays one journal into a session and admits it. A nil
// handler with nil error means the journal recorded a clean end.
func (s *Server) recoverSession(id uint64) (*recoverHandler, error) {
	sess := &session{srv: s, id: id, variation: -1}
	h := &recoverHandler{sess: sess}
	w, st, stats, err := journal.Recover(s.journal, id, h)
	if stats.TornSegments > 0 {
		s.metrics.JournalTornTruncations.Add(uint64(stats.TornSegments))
		s.logf("session %d: journal repaired: %d torn segment(s), %d byte(s) truncated, %d later segment(s) dropped",
			id, stats.TornSegments, stats.TornBytes, stats.DroppedSegments)
	}
	if err != nil {
		if sess.eng != nil {
			sess.eng.Close()
		}
		return nil, err
	}
	if w == nil {
		return nil, nil
	}

	// Recovered sessions pass the same admission the original did: the
	// restarted daemon may be configured tighter than the one that crashed.
	// The cost prices the journal's CURRENT geometry — replayed resize
	// records re-staged the engine — so a session that crashed resized
	// re-admits at its resized price. A refusal counts only as a failed
	// recovery, never as a refused admission.
	cost := sessionCost(sess.cfg, sess.shards)
	s.mu.Lock()
	refused, reason := s.admitLocked(sess.tenant, cost)
	if refused == nil && id > s.nextID {
		s.nextID = id
	}
	s.mu.Unlock()
	if refused != nil {
		sess.eng.Close()
		w.Abandon()
		return nil, errors.New(reason)
	}
	sess.cost = cost
	sess.jw = w
	sess.observed = st.Observed
	sess.interval = st.Interval
	sess.lastShed = st.Shed
	sess.streamPos.Store(st.StreamPos())
	sess.shed.Store(st.Shed)
	// The degradation rung resets to full across a crash: the rung is
	// serving-pressure state, not stream state, and the restarted daemon's
	// pressure is measured fresh. The controller (re-created at attach)
	// re-admits the current geometry as its restore target.
	s.metrics.TenantSessions.With(sess.tenant).Add(1)
	s.metrics.LadderRung.With(rungLabel(0)).Add(1)
	return h, nil
}
