package core

import (
	"context"
	"fmt"

	"hwprof/internal/accum"
	"hwprof/internal/counter"
	"hwprof/internal/event"
	"hwprof/internal/hashfn"
)

// Profiler is anything that observes a tuple stream and, at interval
// boundaries, reports the per-tuple counts it captured. EndInterval returns
// the captured profile for the interval just finished and resets whatever
// per-interval state the implementation keeps.
type Profiler interface {
	Observe(tp event.Tuple)
	EndInterval() map[event.Tuple]uint64
}

// BatchProfiler is a Profiler with a bulk observation fast path.
// ObserveBatch(batch) must be equivalent to calling Observe on each tuple
// of batch in order; implementations use the batch boundary to hoist
// per-call overhead out of the per-event loop.
type BatchProfiler interface {
	Profiler
	ObserveBatch(batch []event.Tuple)
}

// ObserveAll feeds batch through p, using the bulk path when p has one.
func ObserveAll(p Profiler, batch []event.Tuple) {
	if bp, ok := p.(BatchProfiler); ok {
		bp.ObserveBatch(batch)
		return
	}
	for _, tp := range batch {
		p.Observe(tp)
	}
}

// MultiHash is the paper's profiling architecture: n tagless hash tables of
// saturating counters in front of a bounded fully-associative accumulator
// table. With NumTables == 1 it is exactly the single-hash architecture of
// §5; with NumTables > 1 it is the multi-hash architecture of §6.
//
// The software data layout mirrors the silicon (DESIGN.md §9): the n
// counter banks share one contiguous packed array with an epoch-based O(1)
// flush (counter.Set), the accumulator is a flat open-addressed
// struct-of-arrays table (accum.Table), and for the common shielded
// configurations the n hash functions evaluate fused in a single table
// pass (hashfn.Fused). The steady-state observation path performs no heap
// allocation.
type MultiHash struct {
	cfg    Config
	thresh uint64
	fam    hashfn.Indexer
	fused  *hashfn.Fused // non-nil: the staged pipeline may apply
	set    *counter.Set
	acc    *accum.Table

	idxBuf []uint32
	one    [1]event.Tuple // scratch so Observe can reuse the batch loop
	events uint64
	spare  map[event.Tuple]uint64 // recycled snapshot map, see Recycle

	sc stagedScratch // staged-pipeline scratch, see staged.go
}

// NewMultiHash builds a profiler for the given configuration.
func NewMultiHash(cfg Config) (*MultiHash, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var fam hashfn.Indexer
	var err error
	if cfg.WeakHash {
		fam, err = hashfn.NewWeakFamily(cfg.NumTables, cfg.indexBits())
	} else {
		fam, err = hashfn.NewFamily(cfg.Seed, cfg.NumTables, cfg.indexBits())
	}
	if err != nil {
		return nil, fmt.Errorf("core: building hash family: %w", err)
	}
	var fused *hashfn.Fused
	if f, ok := fam.(*hashfn.Family); ok {
		fused, _ = f.Fuse()
	}
	set, err := counter.NewSet(cfg.NumTables, cfg.PerTableEntries(), cfg.CounterWidth)
	if err != nil {
		return nil, fmt.Errorf("core: building counter banks: %w", err)
	}
	acc, err := accum.New(cfg.EffectiveAccumCapacity(), cfg.ThresholdCount())
	if err != nil {
		return nil, fmt.Errorf("core: building accumulator: %w", err)
	}
	m := &MultiHash{
		cfg:    cfg,
		thresh: cfg.ThresholdCount(),
		fam:    fam,
		fused:  fused,
		set:    set,
		acc:    acc,
		idxBuf: make([]uint32, 0, cfg.NumTables),
	}
	return m, nil
}

// Config returns the configuration the profiler was built with.
func (m *MultiHash) Config() Config { return m.cfg }

// EventsThisInterval returns how many events have been observed since the
// last interval boundary.
func (m *MultiHash) EventsThisInterval() uint64 { return m.events }

// Observe feeds one profiling event through the architecture:
//
//  1. Accumulator lookup. A resident tuple just increments its exact
//     counter; with shielding (the default) it never touches the hash
//     tables again this interval.
//  2. Hash update. Each table's counter for the tuple is incremented —
//     all of them (C0), or only the minimum-valued ones (C1, conservative
//     update).
//  3. Promotion. When the tuple's minimum counter reaches the candidate
//     threshold, the tuple is inserted into the accumulator with that
//     minimum as its initial count (the tight lower bound on its true
//     frequency). With R1 the tuple's hash counters are zeroed on
//     successful promotion.
func (m *MultiHash) Observe(tp event.Tuple) {
	m.one[0] = tp
	m.ObserveBatch(m.one[:])
}

// ObserveBatch feeds every tuple of batch through the architecture, in
// order, with the exact semantics of per-tuple Observe calls. Shielded
// configurations whose hash family fuses and whose counters pack (width
// <= 24) dispatch to the staged batch pipeline (staged.go), C1 or C0.
// Everything else (no shielding, weak-hash ablations, more than 4 tables,
// wide counters or indexes) takes the generic loop.
func (m *MultiHash) ObserveBatch(batch []event.Tuple) {
	m.events += uint64(len(batch))
	if len(batch) == 0 {
		return
	}
	if m.fused != nil && !m.cfg.NoShield {
		if hot, ok := m.set.Hot(); ok {
			m.observeStaged(batch, hot)
			return
		}
	}
	m.observeGeneric(batch)
}

// observeGeneric is the fully general loop, used when shielding is off,
// the hash family cannot fuse (weak-hash ablation, more than 4 tables,
// index widths over 16 bits) or counters are wider than 24 bits.
// Semantics are identical to the staged pipeline on their shared
// configurations.
func (m *MultiHash) observeGeneric(batch []event.Tuple) {
	acc, fam, set := m.acc, m.fam, m.set
	size := set.Size()
	shield := !m.cfg.NoShield
	conservative := m.cfg.ConservativeUpdate
	resetOnPromote := m.cfg.ResetOnPromote
	thresh := m.thresh
	idxBuf := m.idxBuf

	for _, tp := range batch {
		resident := acc.Inc(tp)
		if resident && shield {
			continue
		}

		idxs := fam.Indexes(tp, idxBuf[:0])
		idxBuf = idxs

		if conservative {
			min := set.GetAt(int(idxs[0]))
			for i := 1; i < len(idxs); i++ {
				if v := set.GetAt(i*size + int(idxs[i])); v < min {
					min = v
				}
			}
			for i, idx := range idxs {
				j := i*size + int(idx)
				if set.GetAt(j) == min {
					set.IncAt(j)
				}
			}
		} else {
			for i, idx := range idxs {
				set.IncAt(i*size + int(idx))
			}
		}

		if resident {
			continue // already accumulated; nothing to promote
		}

		min := set.GetAt(int(idxs[0]))
		for i := 1; i < len(idxs); i++ {
			if v := set.GetAt(i*size + int(idxs[i])); v < min {
				min = v
			}
		}
		if min < thresh {
			continue
		}
		if acc.Insert(tp, min) && resetOnPromote {
			for i, idx := range idxs {
				set.ResetAt(i*size + int(idx))
			}
		}
	}
	m.idxBuf = idxBuf
}

// EndInterval snapshots the accumulator (the hardware profile for the
// finished interval), applies the retaining policy, flushes every hash
// table (§5: "At the end of an interval, the hash table is flushed" — an
// O(1) epoch bump here), and returns the snapshot. The snapshot map is
// freshly allocated unless a previous one was handed back via Recycle, in
// which case the interval boundary performs no allocation at all.
func (m *MultiHash) EndInterval() map[event.Tuple]uint64 {
	snap := m.acc.SnapshotInto(m.spare)
	m.spare = nil
	m.acc.EndInterval(m.cfg.Retain)
	m.set.Flush()
	m.events = 0
	return snap
}

// Recycle hands an interval snapshot back to the profiler for reuse: the
// map is cleared and becomes the backing store of a future EndInterval.
// Callers must no longer touch a recycled map. The batched drivers call
// this automatically when RunConfig.ReuseProfiles is set (or when no
// interval callback consumes the profiles).
func (m *MultiHash) Recycle(snap map[event.Tuple]uint64) {
	if snap == nil {
		return
	}
	clear(snap)
	m.spare = snap
}

// Candidates returns the tuples currently at or above the candidate
// threshold in the accumulator, ordered by descending count. This is what
// a hardware optimization reading the profiler mid-interval would see.
func (m *MultiHash) Candidates() []event.Tuple { return m.acc.Candidates() }

// AccumLen returns the number of occupied accumulator entries.
func (m *MultiHash) AccumLen() int { return m.acc.Len() }

var _ BatchProfiler = (*MultiHash)(nil)

// Perfect is the oracle profiler: it counts every tuple exactly with
// unbounded storage. The evaluation's error metrics compare hardware
// profiles against Perfect's interval profiles.
type Perfect struct {
	counts map[event.Tuple]uint64
	spare  map[event.Tuple]uint64 // recycled interval map, see Recycle
}

// NewPerfect returns an empty oracle profiler.
func NewPerfect() *Perfect {
	return &Perfect{counts: make(map[event.Tuple]uint64)}
}

// Observe counts one occurrence of tp.
func (p *Perfect) Observe(tp event.Tuple) { p.counts[tp]++ }

// ObserveBatch counts every tuple of batch, loading the counts map once.
func (p *Perfect) ObserveBatch(batch []event.Tuple) {
	counts := p.counts
	for _, tp := range batch {
		counts[tp]++
	}
}

// EndInterval returns the exact interval profile and starts a new
// interval. The next interval counts into a previously recycled map when
// one is available (its buckets are already grown to interval size)
// instead of reallocating from scratch.
func (p *Perfect) EndInterval() map[event.Tuple]uint64 {
	snap := p.counts
	if p.spare != nil {
		p.counts = p.spare
		p.spare = nil
	} else {
		p.counts = make(map[event.Tuple]uint64, len(snap))
	}
	return snap
}

// Recycle hands an interval profile back to the oracle for reuse: the map
// is cleared (clear() keeps its grown bucket array) and backs a future
// interval. Callers must no longer touch a recycled map.
func (p *Perfect) Recycle(snap map[event.Tuple]uint64) {
	if snap == nil {
		return
	}
	clear(snap)
	p.spare = snap
}

// Distinct returns the number of distinct tuples seen this interval.
func (p *Perfect) Distinct() int { return len(p.counts) }

var _ BatchProfiler = (*Perfect)(nil)

// Recycler is implemented by profilers that can take an interval snapshot
// map back for reuse (MultiHash, Perfect and the sharded engine all do).
// Recycling makes steady-state interval boundaries allocation-free; a
// recycled map must no longer be touched by the caller.
type Recycler interface {
	Recycle(m map[event.Tuple]uint64)
}

var (
	_ Recycler = (*MultiHash)(nil)
	_ Recycler = (*Perfect)(nil)
)

// IntervalFunc receives, for each completed interval, the interval's index
// (from 0), the perfect profile and the hardware profile. The maps are owned
// by the callee and remain valid after the callback returns — unless the
// run was configured with ReuseProfiles, in which case they are recycled
// the moment the callback returns.
type IntervalFunc func(index int, perfect, hardware map[event.Tuple]uint64)

// RunConfig tunes the batched driver.
type RunConfig struct {
	// IntervalLength is the number of events per profile interval.
	IntervalLength uint64

	// BatchSize is the number of tuples read and observed per batch; 0
	// selects event.DefaultBatchSize. Batches never straddle an interval
	// boundary, so boundary placement is identical at every batch size.
	BatchSize int

	// NoPerfect skips the perfect (oracle) profiler even when fn is
	// non-nil; fn then receives a nil perfect map. The oracle costs one
	// map operation per event — far more than the hardware model — so
	// throughput-oriented runs want it off.
	NoPerfect bool

	// ReuseProfiles recycles the interval maps back into the profilers
	// (see Recycler) as soon as fn returns, making steady-state interval
	// boundaries allocation-free. fn must then consume the maps during
	// the callback and not retain them. When fn is nil the driver always
	// recycles: nobody else can be holding the maps.
	ReuseProfiles bool
}

// Run feeds src through both hw and a perfect profiler, invoking fn at
// every interval boundary, and returns the number of complete intervals
// processed. A trailing partial interval is discarded, as in the paper's
// methodology. fn may be nil when only side effects on hw are wanted; the
// perfect profiler is skipped entirely in that case.
//
// Run is the positional form of RunBatched with the default batch size.
func Run(src event.Source, hw Profiler, intervalLength uint64, fn IntervalFunc) (int, error) {
	return RunBatched(src, hw, RunConfig{IntervalLength: intervalLength}, fn)
}

// Failer is implemented by profilers that can fail terminally out of band
// — the sharded engine surfaces worker panics this way. The drivers check
// it between batches so an engine failure aborts a run promptly instead of
// streaming millions of events into a dead profiler.
type Failer interface {
	Err() error
}

// RunBatched is the batched driver: it pulls tuples from src in batches
// (through src's own BatchSource fast path when it has one) and feeds them
// to hw and the oracle in bulk, invoking fn at every interval boundary.
// Interval semantics are exactly those of the per-event driver; only the
// per-call overhead changes.
//
// The returned error reflects the stream and the engine, not just the
// configuration: a source that fails mid-stream (src.Err() != nil) and a
// profiler that fails terminally (Failer) both surface here, with the
// count of intervals completed before the failure.
func RunBatched(src event.Source, hw Profiler, cfg RunConfig, fn IntervalFunc) (int, error) {
	return RunBatchedContext(context.Background(), src, hw, cfg, fn)
}

// RunBatchedContext is RunBatched under a context: cancellation or
// deadline expiry stops the run between batches and returns ctx.Err()
// alongside the number of intervals completed. The profiler is left open —
// shutting it down (and salvaging the partial interval) is the caller's
// choice.
func RunBatchedContext(ctx context.Context, src event.Source, hw Profiler, cfg RunConfig, fn IntervalFunc) (int, error) {
	if cfg.IntervalLength == 0 {
		return 0, fmt.Errorf("core: interval length must be positive")
	}
	if cfg.BatchSize < 0 {
		return 0, fmt.Errorf("core: batch size %d must be non-negative", cfg.BatchSize)
	}
	batchSize := cfg.BatchSize
	if batchSize == 0 {
		batchSize = event.DefaultBatchSize
	}
	if uint64(batchSize) > cfg.IntervalLength {
		batchSize = int(cfg.IntervalLength)
	}

	var perfect *Perfect
	if fn != nil && !cfg.NoPerfect {
		perfect = NewPerfect()
	}
	failer, _ := hw.(Failer)
	var recycler Recycler
	if cfg.ReuseProfiles || fn == nil {
		recycler, _ = hw.(Recycler)
	}
	batched := event.Batched(src)
	buf := make([]event.Tuple, batchSize)

	var n uint64 // events so far in the current interval
	intervals := 0
	for {
		select {
		case <-ctx.Done():
			return intervals, ctx.Err()
		default:
		}
		if failer != nil {
			if err := failer.Err(); err != nil {
				return intervals, fmt.Errorf("core: profiler failed: %w", err)
			}
		}
		// Clip the read so a batch never crosses the interval boundary.
		want := buf
		if remaining := cfg.IntervalLength - n; uint64(len(want)) > remaining {
			want = want[:remaining]
		}
		got := batched.NextBatch(want)
		if got == 0 {
			if err := batched.Err(); err != nil {
				return intervals, fmt.Errorf("core: source failed mid-stream: %w", err)
			}
			break
		}
		batch := want[:got]
		ObserveAll(hw, batch)
		if perfect != nil {
			perfect.ObserveBatch(batch)
		}
		n += uint64(got)
		if n == cfg.IntervalLength {
			var p map[event.Tuple]uint64
			if perfect != nil {
				p = perfect.EndInterval()
			}
			h := hw.EndInterval()
			if fn != nil {
				fn(intervals, p, h)
			}
			if recycler != nil {
				recycler.Recycle(h)
			}
			if perfect != nil && cfg.ReuseProfiles {
				perfect.Recycle(p)
			}
			intervals++
			n = 0
		}
	}
	if failer != nil {
		if err := failer.Err(); err != nil {
			return intervals, fmt.Errorf("core: profiler failed: %w", err)
		}
	}
	return intervals, nil
}
