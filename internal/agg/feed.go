// Package agg is the fleet-scale aggregation tier: it merges per-machine
// interval profiles ("epoch reports") into one logical fleet profile, and
// composes hierarchically — an aggregator can subscribe to other
// aggregators — because the paper's profiles are count maps and count-map
// merging is associative and commutative addition.
//
// # Epochs and the watermark protocol
//
// An epoch is an interval index, not a wall-clock window: member i's epoch
// e is its e-th profile interval, so epochs line up across members exactly
// when their interval boundaries do (the daemon's marked sessions exist to
// make that so for a coordinated union stream). The Feed closes epochs
// strictly in order. Epoch e closes
//
//   - complete, when every member expected at e has reported or skipped
//     past it;
//   - partial, when the straggler deadline fires — armed once some member
//     has advanced past e while e still waits — or when the open window
//     overflows (a member ran more than Window epochs ahead).
//
// A partial epoch is a typed marker, never a silent drop: its Missing list
// names every expected member that did not report, including missing
// members propagated up from a child aggregator's own partial epochs, so
// the root always knows exactly which leaves a profile lacks. Reports that
// arrive for an already-closed epoch are counted and dropped.
//
// Closed epochs are retained in a bounded ring for re-delivery, so a
// subscriber that reconnects resumes from where it left off; a subscriber
// further behind than the ring is told the first epoch it can have and
// declares the gap upward (Skip) instead of silently losing it.
package agg

import (
	"sort"
	"sync"
	"time"

	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// Defaults for the feed's tuning knobs.
const (
	// DefaultWindow is the maximum number of epochs the feed keeps open
	// before force-closing the oldest as partial.
	DefaultWindow = 64
	// DefaultDeadline is the straggler deadline: how long the lowest open
	// epoch may wait — once some member has moved past it — before it is
	// closed partial.
	DefaultDeadline = 5 * time.Second
	// DefaultRetain is how many closed epochs the feed retains for
	// subscribers that attach late or reconnect.
	DefaultRetain = 64
	// DefaultSubBuffer is the per-subscriber channel buffer beyond the
	// retained epochs delivered at attach.
	DefaultSubBuffer = 64
)

// Epoch is one closed fleet epoch: the merged counts of every member
// report, plus the partial-epoch marker naming what is missing. A feed
// closes, retains and delivers the wire message itself; see wire.EpochMsg.
type Epoch = wire.EpochMsg

// FeedConfig tunes a Feed.
type FeedConfig struct {
	// Source names this feed in the epochs it emits.
	Source string
	// EpochLength is the events-per-epoch contract members must share; the
	// feed itself only aligns indices, but subscribers compare it on
	// attach.
	EpochLength uint64
	// Window bounds open epochs; 0 selects DefaultWindow.
	Window int
	// Deadline is the straggler deadline; 0 selects DefaultDeadline,
	// negative disables (epochs wait forever for stragglers).
	Deadline time.Duration
	// Retain bounds the closed-epoch ring; 0 selects DefaultRetain.
	Retain int
	// Logf receives one line per epoch lifecycle event; nil disables.
	Logf func(format string, args ...any)
	// OnEpoch, when non-nil, observes every closed epoch (telemetry). It
	// is called in close order, under the feed's lock, as each epoch
	// closes and before any subscriber can receive it — so a subscriber
	// never sees an epoch its telemetry has not counted. It must be quick
	// and must not call back into the feed.
	OnEpoch func(Epoch)
	// OnReport, when non-nil, observes every accepted report: the member,
	// its epoch, and its lag behind the frontier in epochs (telemetry).
	OnReport func(member string, epoch, lag uint64)
	// OnLate, when non-nil, observes reports dropped because their epoch
	// already closed or was already reported (telemetry).
	OnLate func(member string, epoch uint64)
}

func (c FeedConfig) withDefaults() FeedConfig {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Deadline == 0 {
		c.Deadline = DefaultDeadline
	}
	if c.Retain == 0 {
		c.Retain = DefaultRetain
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// member is one registered reporter.
type member struct {
	start uint64 // first epoch this member is expected at
	next  uint64 // next epoch index not yet reported or skipped
}

// openEpoch accumulates an epoch still waiting for reports.
type openEpoch struct {
	counts   map[event.Tuple]uint64
	reported map[string]struct{}
	missing  map[string]struct{} // propagated from children's partial epochs
}

// Sub is one subscription to a feed's closed epochs. Read C until it
// closes; the feed closes it on Feed.Close, Unsubscribe, or when the
// subscriber falls so far behind that its buffer overflows — resubscribe
// from the last epoch seen to continue from the retention ring.
type Sub struct {
	// C delivers closed epochs in order.
	C     <-chan Epoch
	ch    chan Epoch
	start uint64
}

// Feed merges member epoch reports into closed fleet epochs under the
// watermark protocol. All methods are safe for concurrent use.
type Feed struct {
	cfg FeedConfig

	mu       sync.Mutex
	members  map[string]*member
	open     map[uint64]*openEpoch
	ghosts   map[uint64]map[string]struct{} // members lost uncleanly mid-epoch
	next     uint64                         // watermark: next epoch to close
	frontier uint64                         // 1 + highest epoch any member reported or skipped
	late     uint64                         // reports dropped as late or duplicate

	retained  []Epoch // closed epochs, oldest first
	firstKept uint64  // epoch index of retained[0]

	subs   map[*Sub]struct{}
	closed bool

	timerGen int    // invalidates armed deadline timers
	armed    bool   // a deadline timer targets armedFor
	armedFor uint64 // epoch the armed timer would force-close
}

// NewFeed builds a feed from cfg.
func NewFeed(cfg FeedConfig) *Feed {
	return &Feed{
		cfg:     cfg.withDefaults(),
		members: make(map[string]*member),
		open:    make(map[uint64]*openEpoch),
		ghosts:  make(map[uint64]map[string]struct{}),
		subs:    make(map[*Sub]struct{}),
	}
}

// Source returns the feed's source name.
func (f *Feed) Source() string { return f.cfg.Source }

// EpochLength returns the feed's events-per-epoch contract.
func (f *Feed) EpochLength() uint64 { return f.cfg.EpochLength }

// Retain returns the closed-epoch retention capacity.
func (f *Feed) Retain() int { return f.cfg.Retain }

// Watermark returns the number of epochs closed so far (the next epoch to
// close).
func (f *Feed) Watermark() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Frontier returns 1 + the highest epoch any member has reported or
// skipped; Frontier - Watermark is the open span.
func (f *Feed) Frontier() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frontier
}

// Late returns how many reports were dropped because their epoch had
// already closed (or was a duplicate).
func (f *Feed) Late() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.late
}

// Members returns the current member count.
func (f *Feed) Members() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Join registers a member and returns its base epoch: the first epoch the
// feed expects it at. A member joining a running fleet is expected from
// the current watermark on — its own interval i is fleet epoch base+i — so
// a late joiner neither stalls closed history nor goes unaccounted in the
// epochs it lives through. Joining an existing name resets that member.
func (f *Feed) Join(name string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0
	}
	base := f.next
	f.members[name] = &member{start: base, next: base}
	f.cfg.Logf("agg: member %s joined at epoch %d", name, base)
	return base
}

// JoinAt registers a member expected from the given epoch; Start uses it to
// register an aggregator's configured children at epoch 0 before any
// report flows, so a child that never connects still shows as missing.
func (f *Feed) JoinAt(name string, start uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.members[name] = &member{start: start, next: start}
}

// Report delivers a member's counts for one epoch, with the member's own
// missing list (a child aggregator's partial epochs) propagated into this
// feed's. Counts is not retained: the feed merges it into the epoch
// accumulator before returning, so the caller may recycle the map.
// Reports for closed epochs — a straggler arriving after its deadline —
// are counted and dropped; an epoch, once closed, is immutable.
func (f *Feed) Report(name string, epoch uint64, counts map[event.Tuple]uint64, missing []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	m := f.members[name]
	if m == nil {
		f.cfg.Logf("agg: report from unknown member %s dropped", name)
		return
	}
	if epoch < m.next {
		f.lateLocked(name, epoch)
		return
	}
	m.next = epoch + 1
	if epoch+1 > f.frontier {
		f.frontier = epoch + 1
	}
	if epoch < f.next {
		// The epoch closed — deadline or window — before this straggler
		// arrived. Its counts are unmergeable now; the partial marker
		// already named it missing.
		f.lateLocked(name, epoch)
		f.advanceLocked()
		return
	}
	op := f.open[epoch]
	if op == nil {
		op = &openEpoch{
			counts:   make(map[event.Tuple]uint64, len(counts)),
			reported: make(map[string]struct{}),
			missing:  make(map[string]struct{}),
		}
		f.open[epoch] = op
	}
	for t, c := range counts {
		op.counts[t] += c
	}
	op.reported[name] = struct{}{}
	for _, miss := range missing {
		op.missing[miss] = struct{}{}
	}
	if f.cfg.OnReport != nil {
		f.cfg.OnReport(name, epoch, f.frontier-m.next)
	}
	f.advanceLocked()
}

// lateLocked accounts one dropped late/duplicate report.
func (f *Feed) lateLocked(name string, epoch uint64) {
	f.late++
	f.cfg.Logf("agg: late report from %s for closed epoch %d dropped", name, epoch)
	if f.cfg.OnLate != nil {
		f.cfg.OnLate(name, epoch)
	}
}

// Skip declares that a member cannot provide epochs below `to` — a
// subscriber that reconnected beyond the upstream retention ring declares
// the lost span instead of stalling it. The skipped epochs close with the
// member in their Missing list.
func (f *Feed) Skip(name string, to uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	m := f.members[name]
	if m == nil || to <= m.next {
		return
	}
	f.cfg.Logf("agg: member %s skipped epochs [%d, %d)", name, m.next, to)
	m.next = to
	if to > f.frontier {
		f.frontier = to
	}
	f.advanceLocked()
}

// Leave removes a member. A clean leave (the member drained: everything it
// observed was reported) simply stops expecting it. An unclean leave — a
// session torn down mid-stream, a tombstone expired unresumed — marks the
// member's in-progress epoch as missing it forever, so the loss surfaces
// as a typed partial epoch rather than a silently smaller count.
func (f *Feed) Leave(name string, clean bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	m := f.members[name]
	if m == nil {
		return
	}
	delete(f.members, name)
	if !clean && m.next >= f.next {
		g := f.ghosts[m.next]
		if g == nil {
			g = make(map[string]struct{})
			f.ghosts[m.next] = g
		}
		g[name] = struct{}{}
		if m.next+1 > f.frontier {
			f.frontier = m.next + 1 // the ghost epoch must eventually close
		}
		f.cfg.Logf("agg: member %s lost mid-epoch %d", name, m.next)
	} else {
		f.cfg.Logf("agg: member %s left at epoch %d", name, m.next)
	}
	f.advanceLocked()
}

// advanceLocked closes every epoch the watermark protocol says is done —
// settled epochs as they are, window overflows as partial — and re-arms
// the straggler deadline.
func (f *Feed) advanceLocked() {
	for f.next < f.frontier {
		e := f.next
		if f.settledLocked(e) {
			f.closeLocked(e)
			continue
		}
		if f.frontier-e > uint64(f.cfg.Window) {
			f.cfg.Logf("agg: epoch %d force-closed: open window %d exceeded", e, f.cfg.Window)
			f.closeLocked(e)
			continue
		}
		break
	}
	f.armDeadlineLocked()
}

// settledLocked reports whether nothing more can arrive for epoch e: every
// member expected at e has moved past it.
func (f *Feed) settledLocked(e uint64) bool {
	for _, m := range f.members {
		if m.start <= e && m.next <= e {
			return false
		}
	}
	return true
}

// closeLocked closes epoch e: merged counts sealed, missing members
// computed (expected-but-silent, ghosts, and child-propagated names
// unioned), the epoch retained, observed by OnEpoch, and only then handed
// to subscribers.
func (f *Feed) closeLocked(e uint64) {
	op := f.open[e]
	delete(f.open, e)
	counts := map[event.Tuple]uint64{}
	var children uint64
	missing := make(map[string]struct{})
	if op != nil {
		counts = op.counts
		children = uint64(len(op.reported))
		for name := range op.missing {
			missing[name] = struct{}{}
		}
	}
	for name, m := range f.members {
		if m.start <= e {
			if op == nil {
				missing[name] = struct{}{}
			} else if _, ok := op.reported[name]; !ok {
				missing[name] = struct{}{}
			}
		}
	}
	for name := range f.ghosts[e] {
		missing[name] = struct{}{}
	}
	delete(f.ghosts, e)
	var names []string
	for name := range missing {
		names = append(names, name)
	}
	sort.Strings(names)
	ep := Epoch{
		Source:   f.cfg.Source,
		Epoch:    e,
		Partial:  len(names) > 0,
		Children: children,
		Missing:  names,
		Counts:   counts,
	}
	f.next = e + 1
	if len(f.retained) == f.cfg.Retain {
		copy(f.retained, f.retained[1:])
		f.retained[len(f.retained)-1] = ep
		f.firstKept++
	} else {
		f.retained = append(f.retained, ep)
	}
	if ep.Partial {
		f.cfg.Logf("agg: epoch %d closed partial: missing %v", e, names)
	}
	if f.cfg.OnEpoch != nil {
		f.cfg.OnEpoch(ep)
	}
	for sub := range f.subs {
		if ep.Epoch < sub.start {
			continue
		}
		select {
		case sub.ch <- ep:
		default:
			// The subscriber fell a full buffer behind: kill the
			// subscription rather than stall every other one — it resumes
			// from the retention ring.
			delete(f.subs, sub)
			close(sub.ch)
			f.cfg.Logf("agg: subscriber overflowed at epoch %d, dropped", e)
		}
	}
}

// armDeadlineLocked keeps one timer aimed at the lowest open epoch: armed
// when some member has moved past it (so a straggler, not an idle fleet,
// is what stalls it), re-aimed as the watermark advances.
func (f *Feed) armDeadlineLocked() {
	if f.closed || f.cfg.Deadline < 0 {
		return
	}
	if f.next >= f.frontier {
		f.timerGen++ // nothing pending; disarm whatever timer is in flight
		f.armed = false
		return
	}
	if f.armed && f.armedFor == f.next {
		return
	}
	f.timerGen++
	gen, e := f.timerGen, f.next
	f.armed, f.armedFor = true, e
	time.AfterFunc(f.cfg.Deadline, func() { f.onDeadline(e, gen) })
}

// onDeadline force-closes the epoch its timer was armed for, if it is
// still the lowest open epoch.
func (f *Feed) onDeadline(e uint64, gen int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || gen != f.timerGen {
		return
	}
	f.armed = false
	if f.next == e && f.next < f.frontier {
		f.cfg.Logf("agg: epoch %d force-closed: straggler deadline %v fired", e, f.cfg.Deadline)
		f.closeLocked(e)
		f.advanceLocked()
	}
}

// Subscribe attaches a subscriber wanting epochs from `start` on. Epochs
// already closed are delivered from the retention ring; the returned first
// epoch is `start`, or the oldest retained epoch when `start` has already
// been evicted — the caller declares that gap upward. buf bounds how far
// the subscriber may lag live closes; 0 selects DefaultSubBuffer.
func (f *Feed) Subscribe(start uint64, buf int) (*Sub, uint64) {
	if buf <= 0 {
		buf = DefaultSubBuffer
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	first := start
	if first < f.firstKept {
		first = f.firstKept
	}
	var pending []Epoch
	if first < f.firstKept+uint64(len(f.retained)) {
		pending = f.retained[first-f.firstKept:]
	}
	ch := make(chan Epoch, len(pending)+buf)
	for _, ep := range pending {
		ch <- ep
	}
	sub := &Sub{C: ch, ch: ch, start: first}
	if f.closed {
		close(ch)
	} else {
		f.subs[sub] = struct{}{}
	}
	return sub, first
}

// Unsubscribe detaches a subscriber and closes its channel.
func (f *Feed) Unsubscribe(sub *Sub) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.subs[sub]; ok {
		delete(f.subs, sub)
		close(sub.ch)
	}
}

// Close shuts the feed: open epochs are discarded, every subscriber's
// channel closes, further reports are dropped.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	f.timerGen++
	for sub := range f.subs {
		close(sub.ch)
	}
	f.subs = make(map[*Sub]struct{})
}
