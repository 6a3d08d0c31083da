package shard

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/synth"
)

// baseConfig is the paper's best multi-hash profiler in the 10K regime,
// whose 2048 counters split evenly over 1, 2, 4 or 8 shards.
func baseConfig() core.Config {
	cfg := core.BestMultiHash(core.ShortIntervalConfig())
	cfg.Seed = 42
	return cfg
}

func newEngine(t *testing.T, cfg Config) *Profiler {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// workload drains n events of a synthetic benchmark analog.
func workload(t *testing.T, n uint64) []event.Tuple {
	t.Helper()
	g, err := synth.NewBenchmark("gcc", event.KindValue, 7)
	if err != nil {
		t.Fatal(err)
	}
	return event.Collect(event.Limit(g, n), 0)
}

// TestShardedEquivalence is the engine's core correctness property: for a
// fixed workload, the concurrent engine's interval profiles are identical
// — same tuples, same counts — to routing each tuple to its shard and
// running every shard's sub-stream through a sequential MultiHash built
// from the same split configuration.
//
// Producers hand the engine batches of any length, and the one-shard
// engine copies them into its buffers in chunks rather than routing tuple
// by tuple, so a batch that fills a buffer exactly, falls one short, runs
// one over or spans several buffers must change nothing.
func TestShardedEquivalence(t *testing.T) {
	const bufLen = 64
	for _, tc := range []struct {
		shards, feed int // feed: ObserveBatch length, 0 for a whole interval
	}{
		{1, 0}, {2, 0}, {4, 0}, {8, 0},
		{1, 1}, {1, bufLen - 1}, {1, bufLen + 1}, {1, 3*bufLen + 7},
	} {
		shards := tc.shards
		cfg := Config{Core: baseConfig(), NumShards: shards, BatchSize: bufLen, QueueDepth: 2}
		engine := newEngine(t, cfg)

		seq := make([]*core.MultiHash, shards)
		for i := range seq {
			m, err := core.NewMultiHash(cfg.ShardConfig(i))
			if err != nil {
				t.Fatal(err)
			}
			seq[i] = m
		}

		const intervals = 3
		ivLen := cfg.Core.IntervalLength
		tuples := workload(t, uint64(intervals)*ivLen)
		for iv := 0; iv < intervals; iv++ {
			chunk := tuples[uint64(iv)*ivLen : uint64(iv+1)*ivLen]
			feed := tc.feed
			if feed == 0 {
				feed = len(chunk)
			}
			for lo := 0; lo < len(chunk); lo += feed {
				engine.ObserveBatch(chunk[lo:min(lo+feed, len(chunk))])
			}
			for _, tp := range chunk {
				seq[engine.ShardOf(tp)].Observe(tp)
			}

			got := engine.EndInterval()
			want := make(map[event.Tuple]uint64)
			for _, m := range seq {
				for tp, c := range m.EndInterval() {
					want[tp] = c
				}
			}
			if len(want) == 0 {
				t.Fatalf("%d shards, feed %d, interval %d: empty reference profile", shards, tc.feed, iv)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards, feed %d, interval %d: profiles diverge\n got:  %v\n want: %v",
					shards, tc.feed, iv, got, want)
			}
		}
	}
}

// TestObserveMatchesObserveBatch: the two producer entry points route
// identically.
func TestObserveMatchesObserveBatch(t *testing.T) {
	cfg := Config{Core: baseConfig(), NumShards: 4}
	one, bat := newEngine(t, cfg), newEngine(t, cfg)
	tuples := workload(t, cfg.Core.IntervalLength)
	for _, tp := range tuples {
		one.Observe(tp)
	}
	bat.ObserveBatch(tuples)
	if a, b := one.EndInterval(), bat.EndInterval(); !reflect.DeepEqual(a, b) {
		t.Fatal("Observe and ObserveBatch diverge")
	}
}

func TestRouteHashStability(t *testing.T) {
	engine := newEngine(t, Config{Core: baseConfig(), NumShards: 8})
	tp := event.Tuple{A: 0x1234, B: 0x9876}
	s := engine.ShardOf(tp)
	for i := 0; i < 100; i++ {
		if engine.ShardOf(tp) != s {
			t.Fatal("routing is not stable")
		}
	}
	// The route hash must spread distinct tuples over all shards.
	seen := make(map[int]bool)
	for _, tp := range workload(t, 10_000) {
		seen[engine.ShardOf(tp)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("10K events reached only %d of 8 shards", len(seen))
	}
}

// TestStorageSplitConserved: sharding must not grow (or shrink) the
// modeled hash storage, and the accumulator capacity may only grow by the
// ceiling slack.
func TestStorageSplitConserved(t *testing.T) {
	cfg := Config{Core: baseConfig(), NumShards: 4}
	totalEntries, totalAccum := 0, 0
	for i := 0; i < cfg.NumShards; i++ {
		sc := cfg.ShardConfig(i)
		totalEntries += sc.TotalEntries
		totalAccum += sc.EffectiveAccumCapacity()
	}
	if totalEntries != cfg.Core.TotalEntries {
		t.Fatalf("hash counters not conserved: %d vs %d", totalEntries, cfg.Core.TotalEntries)
	}
	want := cfg.Core.EffectiveAccumCapacity()
	if totalAccum < want || totalAccum >= want+cfg.NumShards {
		t.Fatalf("accumulator capacity %d outside [%d, %d)", totalAccum, want, want+cfg.NumShards)
	}
}

func TestShardSeedsDistinct(t *testing.T) {
	cfg := Config{Core: baseConfig(), NumShards: 8}
	seen := make(map[uint64]bool)
	for i := 0; i < cfg.NumShards; i++ {
		seen[cfg.ShardConfig(i).Seed] = true
	}
	if len(seen) != cfg.NumShards {
		t.Fatalf("only %d distinct shard seeds", len(seen))
	}
}

func TestValidateRejects(t *testing.T) {
	bad := map[string]Config{
		"zero shards":       {Core: baseConfig(), NumShards: 0},
		"indivisible split": {Core: baseConfig(), NumShards: 3},
		"negative batch":    {Core: baseConfig(), NumShards: 2, BatchSize: -1},
		"negative queue":    {Core: baseConfig(), NumShards: 2, QueueDepth: -1},
		"invalid core":      {NumShards: 2},
	}
	for name, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestValidateRejectsZeroKnobsDirectly: Validate checks a fully resolved
// configuration, so the zero tuning knobs — which mean "default" only on
// the New constructor path, where withDefaults runs first — are invalid
// when Validate is called directly.
func TestValidateRejectsZeroKnobsDirectly(t *testing.T) {
	if err := (Config{Core: baseConfig(), NumShards: 2, QueueDepth: 1}).Validate(); err == nil {
		t.Error("Validate accepted BatchSize 0")
	}
	if err := (Config{Core: baseConfig(), NumShards: 2, BatchSize: 64}).Validate(); err == nil {
		t.Error("Validate accepted QueueDepth 0")
	}
	// The same zero knobs construct fine through New (defaults fill in),
	// and the engine reports the defaulted values.
	engine := newEngine(t, Config{Core: baseConfig(), NumShards: 2})
	if got := engine.Config(); got.BatchSize != DefaultBatchSize || got.QueueDepth != DefaultQueueDepth {
		t.Errorf("defaults not applied: BatchSize %d, QueueDepth %d", got.BatchSize, got.QueueDepth)
	}
}

func TestEventsThisInterval(t *testing.T) {
	engine := newEngine(t, Config{Core: baseConfig(), NumShards: 2})
	engine.ObserveBatch(workload(t, 1234))
	if got := engine.EventsThisInterval(); got != 1234 {
		t.Fatalf("EventsThisInterval = %d, want 1234", got)
	}
	engine.EndInterval()
	if got := engine.EventsThisInterval(); got != 0 {
		t.Fatalf("EventsThisInterval after boundary = %d, want 0", got)
	}
}

func TestCloseIdempotentAndUseAfterCloseReportsErrClosed(t *testing.T) {
	engine, err := New(Config{Core: baseConfig(), NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	engine.Close()
	engine.Close() // must not panic or deadlock
	if err := engine.Err(); err != nil {
		t.Fatalf("clean Close left error %v", err)
	}
	// Use after Close must not panic: the misuse is recorded instead.
	engine.Observe(event.Tuple{A: 1})
	if !errors.Is(engine.Err(), ErrClosed) {
		t.Fatalf("Err after use-after-Close = %v, want ErrClosed", engine.Err())
	}
	engine.ObserveBatch([]event.Tuple{{A: 2}})
	if snap := engine.EndInterval(); snap != nil {
		t.Fatal("EndInterval after Close returned a profile")
	}
	if _, err := engine.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
}

// TestDrainReturnsPartialInterval is the graceful-shutdown contract: Drain
// on a half-full interval returns exactly the events observed since the
// last boundary, verified against a sequential replay of each shard's
// sub-stream through the same split configurations.
func TestDrainReturnsPartialInterval(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := Config{Core: baseConfig(), NumShards: shards, BatchSize: 64, QueueDepth: 2}
		engine, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		seq := make([]*core.MultiHash, shards)
		for i := range seq {
			m, err := core.NewMultiHash(cfg.ShardConfig(i))
			if err != nil {
				t.Fatal(err)
			}
			seq[i] = m
		}

		// One full interval, then a half interval left unfinished.
		ivLen := cfg.Core.IntervalLength
		tuples := workload(t, ivLen+ivLen/2)
		engine.ObserveBatch(tuples[:ivLen])
		engine.EndInterval()
		engine.ObserveBatch(tuples[ivLen:])
		for _, tp := range tuples[:ivLen] {
			seq[engine.ShardOf(tp)].Observe(tp)
		}
		for _, m := range seq {
			m.EndInterval()
		}
		for _, tp := range tuples[ivLen:] {
			seq[engine.ShardOf(tp)].Observe(tp)
		}

		got, err := engine.Drain()
		if err != nil {
			t.Fatalf("%d shards: Drain: %v", shards, err)
		}
		want := make(map[event.Tuple]uint64)
		for _, m := range seq {
			for tp, c := range m.EndInterval() {
				want[tp] = c
			}
		}
		if len(want) == 0 {
			t.Fatalf("%d shards: empty reference partial profile", shards)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: Drain diverges from sequential replay\n got:  %v\n want: %v",
				shards, got, want)
		}
	}
}

// TestWorkerPanicContained: a panic inside a shard worker must not crash
// the process or deadlock the engine; it surfaces through Err and the
// remaining shards keep reporting. A one-shard engine has no healthy shard
// left, so its interval profile is nil — but it still answers.
func TestWorkerPanicContained(t *testing.T) {
	for _, shards := range []int{4, 1} {
		cfg := Config{Core: baseConfig(), NumShards: shards, BatchSize: 8, QueueDepth: 2}
		faulty := shards - 1
		var fired atomic.Bool
		cfg.WorkerHook = func(shard int, batch []event.Tuple) {
			if shard == faulty && fired.CompareAndSwap(false, true) {
				panic("injected shard fault")
			}
		}
		engine := newEngine(t, cfg)

		engine.ObserveBatch(workload(t, 10_000))
		profile := engine.EndInterval() // must not deadlock on the failed shard
		if err := engine.Err(); err == nil || !strings.Contains(err.Error(), "worker panic: injected shard fault") {
			t.Fatalf("%d shards: Err = %v, want the contained worker panic", shards, err)
		}
		if shards == 1 && profile != nil {
			t.Fatalf("1 shard: failed engine reported a profile of %d tuples", len(profile))
		}
		// The healthy shards' profile still comes through.
		if shards > 1 && len(profile) == 0 {
			t.Fatalf("%d shards: all shards lost to one worker panic", shards)
		}
		// The engine keeps absorbing events without blocking after the failure.
		engine.ObserveBatch(workload(t, 10_000))
		engine.EndInterval()
	}
}
