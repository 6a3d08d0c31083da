package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hwprof"
	"hwprof/internal/faultinject"
	"hwprof/internal/scenario"
	"hwprof/internal/wire"
)

type generator struct {
	addr     string
	sessions int
	scn      *scenario.Scenario
	backoff  time.Duration
	attempts int
	verify   bool
	kill     *killGate // crash mode: holds every session at the kill offset

	mu        sync.Mutex
	latencies []float64 // seconds between consecutive profile deliveries
}

type outcome struct {
	idx        int
	intervals  int
	shed       uint64
	reconnects uint64
	resizes    uint64
	rung       int
	degrades   int
	parks      int
	verified   int    // intervals proven bit-identical under -verify
	skipped    string // why -verify could not judge this session
	refused    bool
	err        error
}

func (g *generator) run() (failed int) {
	events := g.scn.TotalEvents()
	fmt.Printf("loadgen: %d session(s) × %d events against %s, scenario %s", g.sessions, events, g.addr, g.scn.Name)
	if n := len(g.scn.Faults); n > 0 {
		fmt.Printf(", %d fault window(s)", n)
	}
	fmt.Println()

	start := time.Now()
	results := g.runSessions()
	elapsed := time.Since(start)

	var ok, refused, identical, skipped int
	var sent, shed, reconnects, resizes uint64
	var degrades, parks int
	for _, r := range results {
		switch {
		case r.refused:
			refused++
			fmt.Printf("session %d: %v\n", r.idx, r.err)
		case r.err != nil:
			failed++
			fmt.Printf("session %d: FAILED: %v\n", r.idx, r.err)
		default:
			ok++
			sent += events
			shed += r.shed
			reconnects += r.reconnects
			resizes += r.resizes
			degrades += r.degrades
			parks += r.parks
			line := fmt.Sprintf("session %d: %d interval(s), %d shed, %d reconnect(s)",
				r.idx, r.intervals, r.shed, r.reconnects)
			if r.resizes > 0 || r.degrades > 0 || r.parks > 0 || r.rung > 0 {
				line += fmt.Sprintf(", %d resize(s), rung %d, notices degrade=%d park=%d",
					r.resizes, r.rung, r.degrades, r.parks)
			}
			switch {
			case r.skipped != "":
				skipped++
				line += fmt.Sprintf(" — verify skipped: %s", r.skipped)
			case r.verified > 0 || g.verify:
				identical++
				line += fmt.Sprintf(" — %d interval(s) bit-identical to the local mirror", r.verified)
			}
			fmt.Println(line)
		}
	}

	fmt.Printf("\nsessions: %d ok, %d admission-refused, %d failed\n", ok, refused, failed)
	if sent > 0 {
		obs := sent - shed
		fmt.Printf("throughput: %.0f events/s sent, %.0f events/s profiled over %v\n",
			float64(sent)/elapsed.Seconds(), float64(obs)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
		fmt.Printf("shed: %d of %d events (%.2f%%)\n", shed, sent, 100*float64(shed)/float64(sent))
		fmt.Printf("reconnects: %d\n", reconnects)
	}
	if resizes > 0 || degrades > 0 || parks > 0 {
		fmt.Printf("elastic: %d resize(s), notices degrade=%d park=%d\n", resizes, degrades, parks)
	}
	if g.verify {
		fmt.Printf("verify: %d session(s) bit-identical, %d skipped\n", identical, skipped)
	}
	g.mu.Lock()
	lat := append([]float64(nil), g.latencies...)
	g.mu.Unlock()
	if len(lat) > 0 {
		sort.Float64s(lat)
		fmt.Printf("interval latency: p50 %s  p90 %s  p99 %s  (n=%d)\n",
			fmtSeconds(percentile(lat, 0.50)), fmtSeconds(percentile(lat, 0.90)),
			fmtSeconds(percentile(lat, 0.99)), len(lat))
	}
	return failed
}

// runSessions runs every session concurrently through the shared driver
// and returns their outcomes in session order.
func (g *generator) runSessions() []outcome {
	results := make([]outcome, g.sessions)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.session(i)
		}(i)
	}
	wg.Wait()
	return results
}

// session streams the scenario once over one session — the driver every
// session-dialing mode shares — recording inter-profile latencies and,
// under -verify, checking the delivered profiles against the local mirror.
func (g *generator) session(idx int) outcome {
	var arrive func()
	if g.kill != nil {
		var once sync.Once
		arrive = func() { once.Do(g.kill.held.Done) } // a failed session must not wedge the gate
		defer arrive()
	}
	// The engine seed stays the scenario's: adversarial domains target
	// the engine's exact hash family, so every session attacks the same
	// geometry. Only the stream seed varies per session.
	cfg := g.scn.Config()
	link := new(atomic.Pointer[faultinject.TriggerConn])
	sess, err := hwprof.Connect(context.Background(), g.addr,
		hwprof.WithConfig(cfg),
		hwprof.WithShards(g.scn.Shards),
		hwprof.WithBatchSize(g.scn.Batch),
		hwprof.WithBackoff(g.backoff, 0),
		hwprof.WithMaxAttempts(g.attempts),
		hwprof.WithDialer(triggerDialer(link)))
	if err != nil {
		return outcome{idx: idx, refused: isOverload(err), err: err}
	}
	stream, err := g.stream(g.scn.Seed+uint64(idx), link)
	if err != nil {
		sess.Close()
		return outcome{idx: idx, err: err}
	}
	if g.kill != nil {
		stream = &killGateSource{inner: stream, at: g.kill.at, arrive: arrive, resume: g.kill.restarted}
	}
	var rec *recordSource
	if g.verify {
		rec = &recordSource{inner: stream}
		stream = rec
	}
	var profs []map[hwprof.Tuple]uint64
	last := time.Time{}
	n, err := sess.Run(stream, func(_ int, counts map[hwprof.Tuple]uint64) {
		now := time.Now()
		if !last.IsZero() {
			g.mu.Lock()
			g.latencies = append(g.latencies, now.Sub(last).Seconds())
			g.mu.Unlock()
		}
		last = now
		if g.verify {
			profs = append(profs, counts)
		}
	})
	if err != nil {
		return outcome{idx: idx, err: err}
	}
	out := outcome{idx: idx, intervals: n, shed: sess.ShedEvents(),
		reconnects: sess.Reconnects(), resizes: sess.Resizes(), rung: sess.Rung()}
	trail := sess.NoticeTrail()
	for _, nt := range trail {
		switch nt.Kind {
		case hwprof.NoticeDegrade:
			out.degrades++
		case hwprof.NoticePark:
			out.parks++
		}
	}
	if g.verify {
		switch {
		case out.shed > 0:
			// Shed events never reached the daemon's engine; no local mirror
			// can reproduce lossy profiles.
			out.skipped = fmt.Sprintf("%d event(s) shed; profiles are lossy", out.shed)
		case out.resizes > geometryChanges(cfg, g.scn.Shards, trail):
			// The client counted a geometry change (from a resume ack) the
			// trail does not carry — the session resumed against a restarted
			// daemon that lost its kept notices, and the mirror cannot place
			// the segment split. The opposite inequality is normal: an ack
			// coalesces several in-outage changes into one count while the
			// redelivered notices keep the trail itself complete.
			out.skipped = "a geometry change during an outage is missing from the notice trail"
		default:
			if verr := verifySession(cfg, g.scn.Shards, rec.buf, profs, trail); verr != nil {
				out.err = verr
				return out
			}
			out.verified = len(profs)
		}
	}
	return out
}

// stream builds the scenario's event stream under seed, wrapped in the
// transport schedule: each fault window arms its fault on every given
// link as the stream crosses it, and each phase is paced at its own rate.
func (g *generator) stream(seed uint64, links ...*atomic.Pointer[faultinject.TriggerConn]) (hwprof.Source, error) {
	src, err := g.scn.SourceSeed(seed)
	if err != nil {
		return nil, err
	}
	var s hwprof.Source = &faultArmSource{inner: src, faults: g.scn.FaultsIn(0, g.scn.TotalEvents()), links: links}
	for _, p := range g.scn.Phases {
		if p.Rate > 0 {
			return &phasePacer{inner: s, phases: g.scn.Phases, start: time.Now()}, nil
		}
	}
	return s, nil
}

// recordSource tees every event the session sends into a buffer — the
// exact accepted stream (exactly-once across reconnects) that -verify
// mirrors locally.
type recordSource struct {
	inner hwprof.Source
	buf   []hwprof.Tuple
}

func (r *recordSource) Next() (hwprof.Tuple, bool) {
	tp, ok := r.inner.Next()
	if ok {
		r.buf = append(r.buf, tp)
	}
	return tp, ok
}

func (r *recordSource) Err() error { return r.inner.Err() }

// geometryChanges folds a session's notice trail from its admitted
// geometry and counts the notices that actually changed the engine shape —
// the same arithmetic the client's Resizes counter runs, so a mismatch
// between the two means a change happened that the trail does not record.
func geometryChanges(cfg hwprof.Config, shards int, trail []hwprof.RemoteNotice) uint64 {
	var n uint64
	for _, nt := range trail {
		if nt.IntervalLength == 0 {
			continue
		}
		if nt.IntervalLength != cfg.IntervalLength || nt.TotalEntries != cfg.TotalEntries ||
			nt.NumTables != cfg.NumTables || nt.Shards != shards {
			n++
		}
		cfg.IntervalLength = nt.IntervalLength
		cfg.TotalEntries = nt.TotalEntries
		cfg.NumTables = nt.NumTables
		shards = nt.Shards
	}
	return n
}

// verifySession mirrors the accepted stream through local engines and
// requires the daemon's delivered profiles bit-identical. Every notice
// that changed the session's geometry splits the stream at its Observed
// boundary, and the segment after it runs cold through a fresh engine at
// the announced shape — exactly the park-and-restage contract the daemon
// claims for elastic resizes.
func verifySession(cfg hwprof.Config, shards int, stream []hwprof.Tuple,
	got []map[hwprof.Tuple]uint64, trail []hwprof.RemoteNotice) error {

	var want []map[hwprof.Tuple]uint64
	start := uint64(0)
	for _, nt := range trail {
		if nt.IntervalLength == 0 {
			continue
		}
		if nt.IntervalLength == cfg.IntervalLength && nt.TotalEntries == cfg.TotalEntries &&
			nt.NumTables == cfg.NumTables && nt.Shards == shards {
			continue // rung-only move: the engine was not restaged
		}
		if nt.Observed < start || nt.Observed > uint64(len(stream)) {
			return fmt.Errorf("verify: notice boundary at observed %d outside the sent stream (prev split %d, %d events)",
				nt.Observed, start, len(stream))
		}
		seg, err := segmentProfiles(cfg, shards, stream[start:nt.Observed])
		if err != nil {
			return err
		}
		want = append(want, seg...)
		start = nt.Observed
		cfg.IntervalLength = nt.IntervalLength
		cfg.TotalEntries = nt.TotalEntries
		cfg.NumTables = nt.NumTables
		shards = nt.Shards
	}
	seg, err := segmentProfiles(cfg, shards, stream[start:])
	if err != nil {
		return err
	}
	want = append(want, seg...)
	if len(got) != len(want) {
		return fmt.Errorf("verify: %d interval(s) delivered, local mirror produced %d", len(got), len(want))
	}
	for i := range want {
		if !maps.Equal(got[i], want[i]) {
			return fmt.Errorf("verify: interval %d diverges from the local mirror", i)
		}
	}
	return nil
}

// segmentProfiles cold-starts a local engine at the given geometry and
// runs one stream segment through it, returning every complete interval
// profile. It is hwprof.Profile, the run the daemon's profiles are
// promised bit-identical to.
func segmentProfiles(cfg hwprof.Config, shards int, events []hwprof.Tuple) ([]map[hwprof.Tuple]uint64, error) {
	var out []map[hwprof.Tuple]uint64
	_, err := hwprof.Profile(context.Background(), hwprof.NewSliceSource(events),
		hwprof.WithConfig(cfg), hwprof.WithShards(shards), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, hw map[hwprof.Tuple]uint64) { out = append(out, hw) }))
	if err != nil {
		return nil, fmt.Errorf("verify: local mirror: %w", err)
	}
	return out, nil
}

// triggerDialer wraps every dial of a session in a TriggerConn and
// publishes the live connection, so the stream-position watcher
// (faultArmSource) can arm faults on whatever connection is current —
// including the ones reconnection establishes after earlier faults.
func triggerDialer(cur *atomic.Pointer[faultinject.TriggerConn]) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		tc := &faultinject.TriggerConn{Conn: conn}
		cur.Store(tc)
		return tc, nil
	}
}

// faultArmSource watches the stream position and arms the scenario's next
// fault on every link's live connection when its window opens. The fault
// fires once per window and link, on the link's first write after the
// window's start position reaches the source — the stream itself is never
// altered, so a scenario run's recording is independent of its fault
// schedule.
type faultArmSource struct {
	inner  hwprof.Source
	faults []scenario.Fault // sorted, non-overlapping
	links  []*atomic.Pointer[faultinject.TriggerConn]
	next   int
	pos    uint64
}

func (s *faultArmSource) Next() (hwprof.Tuple, bool) {
	if s.next < len(s.faults) && s.pos >= s.faults[s.next].From {
		f := s.faults[s.next]
		s.next++
		for _, link := range s.links {
			if c := link.Load(); c != nil {
				switch f.Kind {
				case scenario.FaultHangup:
					c.Hangup()
				case scenario.FaultCorrupt:
					c.Corrupt()
				}
			}
		}
	}
	s.pos++
	return s.inner.Next()
}

func (s *faultArmSource) Err() error { return s.inner.Err() }

// phasePacer throttles a scenario stream to each phase's own target rate,
// checking the clock every 256 events. Unpaced phases (rate 0) run at
// full speed; the clock restarts at every phase boundary.
type phasePacer struct {
	inner  hwprof.Source
	phases []scenario.Phase
	start  time.Time

	pi  int
	pos uint64 // position within the current phase
}

func (p *phasePacer) Next() (hwprof.Tuple, bool) {
	for p.pi < len(p.phases) && p.pos >= p.phases[p.pi].Events {
		p.pi++
		p.pos = 0
		p.start = time.Now()
	}
	if p.pi < len(p.phases) {
		if rate := p.phases[p.pi].Rate; rate > 0 && p.pos%256 == 0 {
			target := p.start.Add(time.Duration(float64(p.pos) / rate * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
		}
	}
	p.pos++
	return p.inner.Next()
}

func (p *phasePacer) Err() error { return p.inner.Err() }

// isOverload reports whether err is the daemon's admission refusal.
func isOverload(err error) bool {
	var e wire.ErrorMsg
	return errors.As(err, &e) && e.Code == wire.CodeOverload
}

// percentile reads the q-quantile from a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
