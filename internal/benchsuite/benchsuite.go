// Package benchsuite defines the repository's fixed-seed hot-path
// benchmark cases: the ns/event and allocs/op measurements that make up
// the perf trajectory recorded in the BENCH_*.json files.
//
// The cases live in a normal package (rather than only in _test files) so
// that cmd/benchrun can execute them programmatically with
// testing.Benchmark and emit machine-readable results, while the usual
// `go test -bench` path runs the same cases through a thin wrapper. Every
// case draws its workload from a fixed seed, so two runs on the same
// machine measure the same event stream — before/after comparisons are
// apples to apples.
package benchsuite

import (
	"testing"

	"hwprof/internal/accum"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/hashfn"
	"hwprof/internal/synth"
	"hwprof/internal/wire"
	"hwprof/internal/xrand"
)

// Case is one named benchmark. Cases that process events report an
// "ns/event" metric; component micro-cases are plain ns/op. Advisory
// cases are measured and recorded but excluded from regression gating:
// their numbers (e.g. the deep geometry's cache-bound loop) are too
// workload- and cache-sensitive to be a stable contract.
type Case struct {
	Name     string
	F        func(b *testing.B)
	Advisory bool
}

// workloadSeed fixes the event stream of every case.
const workloadSeed = 0xC0FFEE

// streamLen is the length of the canned tuple stream (power of two so the
// benchmark loop can wrap with a mask).
const streamLen = 1 << 16

// Tuples returns the canned benchmark stream: a skewed mix where ~90% of
// events come from a 256-tuple hot set (triangularly skewed, so a handful
// of tuples dominate) and the rest are near-unique noise. Deterministic in
// seed.
//
// No tuple of this stream reaches 1% of a 10k-event interval, so the
// short-interval cases barely use the accumulator: observe-batch/multi
// runs with it empty (0% of events resident) and observe-batch/single
// with 2% resident, while observe-batch/multi-long, at 0.1% of 1M-event
// intervals, has 86% resident. observe-batch/multi-analog covers the
// short-interval accumulator path on analogTuples instead.
func Tuples(n int, seed uint64) []event.Tuple {
	r := xrand.New(seed)
	hot := make([]event.Tuple, 256)
	for i := range hot {
		hot[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	out := make([]event.Tuple, n)
	for i := range out {
		if r.Uint64n(10) != 0 {
			// Min of two uniforms skews toward low indexes: index 0 is
			// ~512x more likely than index 255.
			a, b := r.Uint64n(256), r.Uint64n(256)
			if b < a {
				a = b
			}
			out[i] = hot[a]
			continue
		}
		out[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	return out
}

// analogTuples returns the first n events of the gcc value-stream analog
// (internal/synth) at seed: the stream e2ebench replays. At the
// short-interval regime 31% of its events are accumulator-resident.
func analogTuples(n int, seed uint64) []event.Tuple {
	g, err := synth.NewBenchmark("gcc", event.KindValue, seed)
	if err != nil {
		panic(err) // the analog's name is fixed
	}
	out := make([]event.Tuple, n)
	for i := range out {
		out[i], _ = g.Next()
	}
	return out
}

// recycler matches profilers that can take an interval snapshot back for
// reuse. Asserted dynamically so the suite also runs (without recycling)
// against builds that predate the reuse API.
type recycler interface {
	Recycle(m map[event.Tuple]uint64)
}

// endInterval closes the profiler's interval and hands the snapshot back
// when the profiler supports reuse.
func endInterval(p core.Profiler) {
	snap := p.EndInterval()
	if r, ok := p.(recycler); ok {
		r.Recycle(snap)
	}
}

// observeBatchCase measures the batched hot loop of cfg, interval
// boundaries included: per op one DefaultBatchSize batch is observed, and
// EndInterval runs (inside the timer) whenever the interval fills. The
// reported allocs/op therefore covers the whole steady-state cycle, not
// just the observation path.
func observeBatchCase(cfg core.Config) func(b *testing.B) {
	return observeBatchLenCase(cfg, event.DefaultBatchSize)
}

// observeBatchLenCase is observeBatchCase at an explicit batch length
// (a power of two dividing streamLen, so the stream wraps cleanly). The
// batch-length sweep cases use it to locate the staged pipeline's
// break-even point: short batches amortize the stage pass poorly, long
// ones keep the lookahead window full.
func observeBatchLenCase(cfg core.Config, batch int) func(b *testing.B) {
	return observeStreamCase(cfg, batch, Tuples)
}

// observeStreamCase is observeBatchLenCase on the streamLen-event stream
// that stream returns at workloadSeed.
func observeStreamCase(cfg core.Config, batch int, stream func(n int, seed uint64) []event.Tuple) func(b *testing.B) {
	return func(b *testing.B) {
		p, err := core.NewMultiHash(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuples := stream(streamLen, workloadSeed)
		// Warm one interval so map growth and table warm-up are not
		// charged to the measured steady state.
		var n uint64
		for n < cfg.IntervalLength {
			p.ObserveBatch(tuples[:batch])
			n += uint64(batch)
		}
		endInterval(p)
		n = 0
		events := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i * batch) & (streamLen - 1)
			p.ObserveBatch(tuples[off : off+batch])
			events += batch
			n += uint64(batch)
			if n >= cfg.IntervalLength {
				endInterval(p)
				n = 0
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// observePerEventCase measures the unbatched Observe path: one event per
// op, interval boundaries included.
func observePerEventCase(cfg core.Config) func(b *testing.B) {
	return func(b *testing.B) {
		p, err := core.NewMultiHash(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuples := Tuples(streamLen, workloadSeed)
		var n uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Observe(tuples[i&(streamLen-1)])
			n++
			if n >= cfg.IntervalLength {
				endInterval(p)
				n = 0
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	}
}

// accumIncCase measures the accumulator's resident-tuple Inc lookup — the
// very first operation of every observed event.
func accumIncCase() func(b *testing.B) {
	return func(b *testing.B) {
		tbl, err := accum.New(100, 1<<40)
		if err != nil {
			b.Fatal(err)
		}
		resident := Tuples(64, workloadSeed)[:64]
		for _, tp := range resident {
			tbl.Insert(tp, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Inc(resident[i&63])
		}
	}
}

// accumInsertCase measures promotion pressure: inserts into a table kept
// full of replaceable entries, so every op exercises victim selection and
// eviction.
func accumInsertCase() func(b *testing.B) {
	return func(b *testing.B) {
		const capacity = 100
		tbl, err := accum.New(capacity, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// initial < threshold keeps every entry replaceable, so the
			// table stays full and each insert past warm-up evicts.
			tbl.Insert(event.Tuple{A: uint64(i), B: uint64(i) * 3}, uint64(i%999)+1)
		}
	}
}

// hashIndexCase measures one hardwired hash evaluation.
func hashIndexCase() func(b *testing.B) {
	return func(b *testing.B) {
		f, err := hashfn.New(workloadSeed, 9)
		if err != nil {
			b.Fatal(err)
		}
		tuples := Tuples(streamLen, workloadSeed)
		var sink uint32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink ^= f.Index(tuples[i&(streamLen-1)])
		}
		_ = sink
	}
}

// batchFrame is the event count of the wire codec cases' frames.
const batchFrame = 512

// batchEncodeCase measures wire.AppendBatch: per op one 512-event frame of
// the canned stream is encoded into a reused buffer. It also reports the
// encoded size in B/event.
func batchEncodeCase() func(b *testing.B) {
	return func(b *testing.B) {
		tuples := Tuples(streamLen, workloadSeed)
		enc := wire.AppendBatch(nil, tuples[:batchFrame])
		size := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i * batchFrame) & (streamLen - 1)
			enc = wire.AppendBatch(enc[:0], tuples[off:off+batchFrame])
			size += len(enc)
		}
		b.StopTimer()
		events := float64(b.N) * batchFrame
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
		b.ReportMetric(float64(size)/events, "B/event")
	}
}

// batchDecodeCase measures wire.DecodeBatch: per op one 512-event frame of
// the canned stream, encoded before the timer starts, is decoded into a
// reused buffer.
func batchDecodeCase() func(b *testing.B) {
	return func(b *testing.B) {
		tuples := Tuples(streamLen, workloadSeed)
		frames := make([][]byte, streamLen/batchFrame)
		for i := range frames {
			frames[i] = wire.AppendBatch(nil, tuples[i*batchFrame:(i+1)*batchFrame])
		}
		dec := make([]event.Tuple, batchFrame)
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dec, err = wire.DecodeBatch(frames[i%len(frames)], dec[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*batchFrame), "ns/event")
	}
}

// deepConfig returns the deepest fusable plain-update geometry — 4×32768
// = 128Ki counters (512 KB of words) at the short-interval regime — where
// the counter set no longer fits in L1 and the ordered commit pays for
// scattered counter access.
func deepConfig() core.Config {
	cfg := core.ShortIntervalConfig()
	cfg.NumTables = 4
	cfg.TotalEntries = 1 << 17
	cfg.ResetOnPromote = true
	cfg.Retain = true
	return cfg
}

// Suite returns the benchmark cases in reporting order.
//
// The observe-batch/multi case is the headline number: the paper's best
// multi-hash configuration (4×512 C1 R0 P1) at the short-interval regime,
// driven through ObserveBatch exactly as RunBatched drives it. The
// multi-analog case runs the same configuration on the gcc analog, whose
// resident share exercises the accumulator path. The multi-lenN cases
// sweep the batch length across the staged pipeline's break-even point,
// and the deep case measures the ordered pipeline on a cache-hostile
// counter set. The wire cases time the batch codec that a
// remote session runs on every event before the engine sees it.
func Suite() []Case {
	short := core.ShortIntervalConfig()
	long := core.LongIntervalConfig()
	return []Case{
		{Name: "observe-batch/multi", F: observeBatchCase(core.BestMultiHash(short))},
		{Name: "observe-batch/single", F: observeBatchCase(core.BestSingleHash(short))},
		{Name: "observe-batch/multi-long", F: observeBatchCase(core.BestMultiHash(long))},
		{Name: "observe-batch/multi-analog", F: observeStreamCase(core.BestMultiHash(short), event.DefaultBatchSize, analogTuples)},
		{Name: "observe-batch/multi-len8", F: observeBatchLenCase(core.BestMultiHash(short), 8)},
		{Name: "observe-batch/multi-len64", F: observeBatchLenCase(core.BestMultiHash(short), 64)},
		{Name: "observe-batch/multi-len512", F: observeBatchLenCase(core.BestMultiHash(short), 512)},
		{Name: "observe-batch/multi-len4096", F: observeBatchLenCase(core.BestMultiHash(short), 4096)},
		{Name: "observe-batch/deep", F: observeBatchLenCase(deepConfig(), 4096), Advisory: true},
		{Name: "observe/per-event", F: observePerEventCase(core.BestMultiHash(short))},
		{Name: "accum/inc", F: accumIncCase()},
		{Name: "accum/insert-evict", F: accumInsertCase()},
		{Name: "hashfn/index", F: hashIndexCase()},
		{Name: "wire/batch-encode", F: batchEncodeCase()},
		{Name: "wire/batch-decode", F: batchDecodeCase()},
	}
}
