// Package shard implements the sharded concurrent profiling engine: N
// independent MultiHash profilers (shards) fed through per-shard worker
// goroutines, presenting the same Profiler surface as a single MultiHash.
//
// # Why sharding is exact
//
// The paper's architecture is naturally partitionable. A tuple's treatment
// — which hash counters it touches, when it crosses the candidate
// threshold, which accumulator entry counts it — depends only on state
// that the tuple itself addresses. Two tuples interact only when they
// share hash-counter buckets or compete for accumulator entries, and both
// of those structures live entirely inside one MultiHash. Routing every
// occurrence of a tuple to the same shard (a pure function of the tuple's
// bits) therefore preserves per-interval semantics exactly:
//
//   - every shard sees precisely the sub-stream of tuples that route to
//     it, in stream order (the router serializes, and each shard's bounded
//     channel is FIFO with a single consumer);
//   - a shard's interval profile is identical to feeding that sub-stream
//     through a sequential MultiHash built from the same split
//     configuration (Config.ShardConfig);
//   - shards partition the tuple space, so the per-shard profiles are
//     disjoint and the merged interval profile is their union.
//
// TestShardedEquivalence in this package proves the property end-to-end.
//
// # Storage split
//
// Total modeled storage is conserved: each shard receives TotalEntries /
// NumShards hash counters (the per-table power-of-two shape is revalidated
// on the split config) and ceil(AccumCapacity / NumShards) accumulator
// entries. Each shard competes for 1/N of the counters with ~1/N of the
// stream, so aliasing pressure — and hence expected error — stays
// comparable to the unsharded profiler; it is not bit-identical to one
// monolithic MultiHash, only to the split-config ensemble above.
//
// # One shard
//
// Every default path (the library, each daemon session, scenarios and
// journal recovery) runs one shard, where routing has no choice to make.
// ObserveBatch then copies batches into the worker's buffers in BatchSize
// chunks instead of hashing and appending each tuple, so the worker
// receives the same batches in the same order. The worker goroutine stays:
// it lets the producer (a source decoding a trace, a session reading the
// wire) run concurrently with the engine instead of in turn with it.
package shard

import (
	"errors"
	"fmt"
	"sync"

	"hwprof/internal/core"
	"hwprof/internal/event"
)

// ErrClosed is reported when a Profiler is used after Close or Drain. The
// public surface never panics on use-after-close: observation calls become
// no-ops that record ErrClosed (visible through Err), and Drain returns it
// directly.
var ErrClosed = errors.New("shard: profiler is closed")

// Defaults for the engine's tuning knobs.
const (
	// DefaultBatchSize is the per-shard batch buffer length.
	DefaultBatchSize = event.DefaultBatchSize
	// DefaultQueueDepth is the bounded per-shard channel depth, in
	// batches. Deep enough to keep workers busy across router hiccups,
	// shallow enough to bound buffered memory and interval-drain latency.
	DefaultQueueDepth = 8
)

// Config describes a sharded profiling engine. Core is the aggregate
// (unsharded) profiler configuration; its storage is split evenly across
// NumShards shards.
type Config struct {
	// Core is the aggregate profiler configuration that the engine
	// subdivides. Core.TotalEntries must be divisible by NumShards and
	// each shard's per-table share must remain a power of two.
	Core core.Config

	// NumShards is the number of concurrent shards (>= 1).
	NumShards int

	// BatchSize is the length of the per-shard batch buffers; 0 selects
	// DefaultBatchSize.
	BatchSize int

	// QueueDepth is the bounded per-shard channel depth in batches; 0
	// selects DefaultQueueDepth.
	QueueDepth int

	// WorkerHook, when non-nil, runs in each shard's worker goroutine
	// immediately before a batch is observed, with the shard index and the
	// batch. It exists for fault injection and tests: a panic inside the
	// hook is contained exactly like a panic in the shard's profiler, and
	// a sleep inside it models a slow shard. Leave nil in production.
	WorkerHook func(shard int, batch []event.Tuple)
}

// withDefaults fills in the zero tuning knobs. New applies it before
// Validate, so a zero BatchSize or QueueDepth means "use the default"
// on the constructor path but is rejected when Validate is called on a
// configuration directly.
func (c Config) withDefaults() Config {
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	return c
}

// Validate reports whether the configuration is usable: the tuning knobs
// are sane and every shard's split configuration is itself valid.
//
// Validate checks a fully resolved configuration, in which BatchSize and
// QueueDepth must be positive — an engine cannot run with zero-length
// batch buffers or unbuffered shard queues. New runs withDefaults before
// validating, so the zero values still mean "default" when constructing.
func (c Config) Validate() error {
	if c.NumShards < 1 {
		return fmt.Errorf("shard: NumShards %d must be >= 1", c.NumShards)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("shard: BatchSize %d must be positive (the zero value selects the default only through New)", c.BatchSize)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("shard: QueueDepth %d must be positive (the zero value selects the default only through New)", c.QueueDepth)
	}
	if c.Core.TotalEntries%c.NumShards != 0 {
		return fmt.Errorf("shard: TotalEntries %d not divisible by NumShards %d",
			c.Core.TotalEntries, c.NumShards)
	}
	for i := 0; i < c.NumShards; i++ {
		if err := c.ShardConfig(i).Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// ShardConfig returns the split configuration of shard i: 1/NumShards of
// the hash counters, ceil(1/NumShards) of the accumulator entries, the
// aggregate interval length and threshold (candidacy is defined against
// the whole interval, not the shard's share of it), and a per-shard hash
// seed so shards alias independently.
func (c Config) ShardConfig(i int) core.Config {
	sc := c.Core
	sc.TotalEntries = c.Core.TotalEntries / c.NumShards
	cap := c.Core.EffectiveAccumCapacity()
	sc.AccumCapacity = (cap + c.NumShards - 1) / c.NumShards
	sc.Seed = shardSeed(c.Core.Seed, i)
	return sc
}

// shardSeed derives shard i's hash seed from the aggregate seed.
func shardSeed(seed uint64, i int) uint64 {
	return mix64(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
}

// RouteHash is the stable tuple-to-shard hash: a SplitMix64-style mix of
// both tuple members, independent of (and uncorrelated with) the byte-table
// hash functions inside the shards. It is a pure function of the tuple, so
// every occurrence of a tuple routes to the same shard — the property the
// equivalence argument rests on.
func RouteHash(tp event.Tuple) uint64 {
	return mix64(mix64(tp.A) ^ tp.B)
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// request is one unit of work on a shard's channel: either a pooled batch
// of tuples to observe, or (batch == nil) an interval barrier to answer
// with the shard's snapshot.
type request struct {
	batch *[]event.Tuple
	out   chan<- map[event.Tuple]uint64
}

// Profiler is the sharded concurrent engine. It implements the same
// Observe / ObserveBatch / EndInterval surface as core.MultiHash and may be
// driven by core.Run and core.RunBatched unchanged.
//
// Observe, ObserveBatch and EndInterval are safe for concurrent use by
// multiple producer goroutines: the router serializes under a mutex, and
// EndInterval drains every shard to quiescence before snapshotting, so an
// interval boundary is a consistent cut of everything routed before the
// call. Events routed concurrently with an EndInterval land in one
// interval or the other, exactly as concurrent Observe calls on a locked
// sequential profiler would.
//
// # Failure containment
//
// A panic inside a shard worker (the shard's MultiHash or a WorkerHook)
// does not crash the process: it is recovered in the worker, recorded as
// the engine's terminal error, and surfaced through Err. A failed shard
// keeps consuming — and discarding — its queue so producers and interval
// barriers never block on it; the engine degrades to reporting the
// healthy shards' profiles alongside the non-nil Err.
//
// A Profiler owns NumShards goroutines. Close shuts them down gracefully,
// letting every queued batch drain first; Drain does the same but also
// returns the unfinished interval's profile. Using a closed Profiler does
// not panic: observations become no-ops, snapshots come back nil, and
// ErrClosed is reported through Err (or directly from Drain).
type Profiler struct {
	cfg     Config
	workers []*worker
	pool    sync.Pool // *[]event.Tuple, capacity cfg.BatchSize

	mu      sync.Mutex
	pending []*[]event.Tuple // per shard, partially filled route buffers
	events  uint64
	closed  bool
	spare   map[event.Tuple]uint64      // recycled merge map, see Recycle
	snaps   []map[event.Tuple]uint64    // barrier merge scratch, len NumShards
	answers chan map[event.Tuple]uint64 // barrier replies, one per shard

	errMu sync.Mutex
	err   error // first terminal failure: worker panic or use-after-close

	wg sync.WaitGroup
}

// worker is one shard: a MultiHash, the channel that feeds it, and the
// failure flag of the goroutine serving it. failed is touched only by the
// worker goroutine itself.
type worker struct {
	idx    int
	mh     *core.MultiHash
	ch     chan request
	failed bool
}

// New builds the engine and starts its shard goroutines.
func New(cfg Config) (*Profiler, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Profiler{
		cfg:     cfg,
		workers: make([]*worker, cfg.NumShards),
		pending: make([]*[]event.Tuple, cfg.NumShards),
		snaps:   make([]map[event.Tuple]uint64, cfg.NumShards),
		answers: make(chan map[event.Tuple]uint64, cfg.NumShards),
	}
	p.pool.New = func() any {
		buf := make([]event.Tuple, 0, cfg.BatchSize)
		return &buf
	}
	// Build every shard before starting any goroutine, so a failure here
	// leaks nothing.
	for i := range p.workers {
		mh, err := core.NewMultiHash(cfg.ShardConfig(i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		// Workers receive batches of exactly BatchSize events; size the
		// batch pipeline's scratch for them now, not on the first batch.
		mh.PrewarmBatch(cfg.BatchSize)
		p.workers[i] = &worker{idx: i, mh: mh, ch: make(chan request, cfg.QueueDepth)}
		p.pending[i] = p.pool.Get().(*[]event.Tuple)
	}
	for _, w := range p.workers {
		p.wg.Add(1)
		go p.serve(w)
	}
	return p, nil
}

// serve is the shard goroutine: it drains batches into the shard's
// MultiHash and answers interval barriers with snapshots. It never exits
// early — even after a panic the loop keeps consuming so producers and
// barriers cannot block on a dead shard — and it only returns when the
// channel is closed by Close/Drain.
func (p *Profiler) serve(w *worker) {
	defer p.wg.Done()
	for req := range w.ch {
		p.handle(w, req)
	}
}

// handle processes one request, converting a panic — in the shard's
// profiler or in a WorkerHook — into a terminal engine error instead of
// crashing the process. After a failure the shard discards batches and
// answers barriers with nil snapshots.
func (p *Profiler) handle(w *worker, req request) {
	defer func() {
		if r := recover(); r != nil {
			w.failed = true
			p.fail(fmt.Errorf("shard %d: worker panic: %v", w.idx, r))
			if req.out != nil {
				req.out <- nil // the barrier must still be answered
			}
		}
	}()
	if req.batch == nil {
		if w.failed {
			req.out <- nil
			return
		}
		req.out <- w.mh.EndInterval()
		return
	}
	if !w.failed {
		if p.cfg.WorkerHook != nil {
			p.cfg.WorkerHook(w.idx, *req.batch)
		}
		w.mh.ObserveBatch(*req.batch)
	}
	*req.batch = (*req.batch)[:0]
	p.pool.Put(req.batch)
}

// fail records the engine's first terminal error; later failures keep the
// original, which is the one that explains the cascade.
func (p *Profiler) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

// Err returns the engine's terminal error, if any: a contained worker
// panic, or ErrClosed after the profiler was used post-Close. A healthy
// engine — including one that was cleanly closed and never misused —
// reports nil.
func (p *Profiler) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// Config returns the configuration the engine was built with (with
// defaults filled in).
func (p *Profiler) Config() Config { return p.cfg }

// NumShards returns the shard count.
func (p *Profiler) NumShards() int { return p.cfg.NumShards }

// ShardOf returns the shard index tp routes to.
func (p *Profiler) ShardOf(tp event.Tuple) int {
	return int(RouteHash(tp) % uint64(p.cfg.NumShards))
}

// EventsThisInterval returns how many events have been routed since the
// last interval boundary.
func (p *Profiler) EventsThisInterval() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.events
}

// Observe routes one event to its shard. After Close it is a no-op that
// records ErrClosed (see Err) instead of panicking.
func (p *Profiler) Observe(tp event.Tuple) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.fail(ErrClosed)
		return
	}
	p.route(tp)
	p.events++
}

// ObserveBatch routes every tuple of batch to its shard, taking the router
// lock once for the whole batch. A one-shard engine has nothing to route:
// it copies batch into the pending buffer in BatchSize chunks, so its
// worker receives exactly the batches per-tuple routing would have built.
// batch is not retained. After Close it is a no-op that records ErrClosed
// (see Err) instead of panicking.
func (p *Profiler) ObserveBatch(batch []event.Tuple) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.fail(ErrClosed)
		return
	}
	p.events += uint64(len(batch))
	if len(p.workers) == 1 {
		p.fill(batch)
		return
	}
	for _, tp := range batch {
		p.route(tp)
	}
}

// route appends tp to its shard's pending buffer, shipping the buffer to
// the shard when full. Callers hold p.mu.
func (p *Profiler) route(tp event.Tuple) {
	s := int(RouteHash(tp) % uint64(len(p.workers)))
	buf := p.pending[s]
	*buf = append(*buf, tp)
	if len(*buf) == cap(*buf) {
		p.ship(s)
	}
}

// fill is route for a one-shard engine, whose every tuple goes to shard 0:
// it copies batch into the pending buffer a chunk at a time, shipping each
// buffer as it fills. Callers hold p.mu.
func (p *Profiler) fill(batch []event.Tuple) {
	for len(batch) > 0 {
		buf := p.pending[0]
		n := copy((*buf)[len(*buf):cap(*buf)], batch)
		*buf = (*buf)[:len(*buf)+n]
		batch = batch[n:]
		if len(*buf) == cap(*buf) {
			p.ship(0)
		}
	}
}

// ship sends shard s its pending buffer and starts a fresh one. Callers
// hold p.mu.
func (p *Profiler) ship(s int) {
	p.workers[s].ch <- request{batch: p.pending[s]}
	p.pending[s] = p.pool.Get().(*[]event.Tuple)
}

// EndInterval flushes the pending route buffers, drains every shard to
// quiescence, snapshots each shard, applies each shard's interval-boundary
// policy, and returns the union of the shard snapshots — the engine's
// profile for the interval just finished. A failed shard contributes
// nothing (its loss is reported through Err); after Close, EndInterval
// returns nil and records ErrClosed.
func (p *Profiler) EndInterval() map[event.Tuple]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.fail(ErrClosed)
		return nil
	}
	merged := p.barrier()
	p.events = 0
	return merged
}

// barrier flushes partial route buffers, posts a snapshot barrier to every
// shard, and merges the answers. Callers hold p.mu.
//
// The merge target is a previously recycled map when one is available, and
// after merging each shard's snapshot is recycled back into that shard's
// MultiHash — safe because the barrier leaves every worker quiescent, and
// the next channel send orders the recycled map's reuse after this write.
// In steady state (caller recycles, see Recycle) an interval boundary
// therefore allocates nothing.
func (p *Profiler) barrier() map[event.Tuple]uint64 {
	// Flush partial buffers so the barrier below follows every event of
	// the interval in each shard's FIFO.
	for s, buf := range p.pending {
		if len(*buf) > 0 {
			p.ship(s)
		}
	}

	// Every shard answers each barrier exactly once, and the barrier
	// collects every answer before it returns, so the reply channel is
	// empty again for the next barrier.
	for _, w := range p.workers {
		w.ch <- request{out: p.answers}
	}

	snaps := p.snaps
	for i := range p.workers {
		snaps[i] = <-p.answers // answers arrive in arbitrary shard order
	}

	// Shards partition the tuple space, so the union is disjoint. Failed
	// shards answer nil; when every shard has failed the interval is lost
	// and the profile is nil, as before.
	var merged map[event.Tuple]uint64
	for i, snap := range snaps {
		if snap == nil {
			continue
		}
		if merged == nil {
			if merged = p.spare; merged == nil {
				merged = make(map[event.Tuple]uint64, 2*len(snap))
			}
			p.spare = nil
		}
		for tp, c := range snap {
			merged[tp] = c
		}
		// Hand the shard's snapshot back to a (quiescent) shard profiler
		// for its next interval. Which shard gets which map is
		// irrelevant; one spare each is what matters.
		clear(snap)
		p.workers[i].mh.Recycle(snap)
		snaps[i] = nil
	}
	return merged
}

// Recycle hands an interval profile back to the engine for reuse as a
// future merge target (see core.Recycler). The map is cleared; callers
// must no longer touch it. The batched drivers call this automatically
// under RunConfig.ReuseProfiles.
func (p *Profiler) Recycle(m map[event.Tuple]uint64) {
	if m == nil {
		return
	}
	clear(m)
	p.mu.Lock()
	p.spare = m
	p.mu.Unlock()
}

// Drain gracefully shuts the engine down and salvages the unfinished
// interval: it flushes the pending route buffers, lets every shard work
// through its queue, snapshots the partial interval, stops the shard
// goroutines, and returns the partial interval's profile — exactly the
// events observed since the last boundary, as a sequential replay of each
// shard's sub-stream would report them. The error is the engine's terminal
// error (nil for a healthy engine, the panic error for a degraded one) or
// ErrClosed when the engine was already shut down.
func (p *Profiler) Drain() (map[event.Tuple]uint64, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.closed = true
	merged := p.barrier()
	p.events = 0
	// The barrier answers only after each shard worked through its queue,
	// so every channel is empty here and close just releases the workers.
	for _, w := range p.workers {
		close(w.ch)
	}
	p.mu.Unlock()
	p.wg.Wait()
	return merged, p.Err()
}

// Close shuts the engine down gracefully: queued batches are flushed into
// the shards, the shard goroutines stop, and their storage is released.
// The unfinished interval's profile is computed but discarded — call Drain
// instead to keep it. After Close the Profiler records ErrClosed on use
// rather than panicking. Close is idempotent.
func (p *Profiler) Close() {
	p.Drain()
}

var _ core.BatchProfiler = (*Profiler)(nil)
