package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// checkGoroutines records the current goroutine count and registers a
// cleanup that fails the test if the count has not settled back to the
// baseline by the end — the goleak-style assertion every teardown path in
// this file runs under.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		// Allow the runtime a moment to retire exited goroutines.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(10 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("goroutines leaked: %d before, %d after", before, got)
		}
	})
}

// TestConcurrentProducersAndIntervals drives the full concurrent lifecycle
// the engine promises to support — several producer goroutines calling
// Observe/ObserveBatch while another goroutine cuts interval boundaries —
// and is meaningful chiefly under -race: every router, channel and pool
// interaction is exercised across goroutines. The one-shard engine, which
// copies batches instead of routing them, runs it too.
func TestConcurrentProducersAndIntervals(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			concurrentProducersAndIntervals(t, shards)
		})
	}
}

func concurrentProducersAndIntervals(t *testing.T, shards int) {
	checkGoroutines(t)
	cfg := Config{Core: baseConfig(), NumShards: shards, BatchSize: 32, QueueDepth: 2}
	engine := newEngine(t, cfg)
	thresh := cfg.Core.ThresholdCount()

	const producers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			batch := make([]event.Tuple, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					batch[i] = event.Tuple{A: uint64(r.Intn(32)), B: uint64(r.Intn(4))}
				}
				engine.ObserveBatch(batch)
				engine.Observe(event.Tuple{A: seed, B: 0xff})
			}
		}(uint64(p + 1))
	}

	// Concurrent interval boundaries: each must return a self-consistent
	// (possibly empty) snapshot without panicking or deadlocking. A zero
	// count is legitimate only under retaining (P1): a tuple the previous
	// profile reported at or above the threshold survives the boundary at
	// count 0 and is reported so if it does not recur (see
	// core.TestRetainedTupleReportedAtZero).
	var prev map[event.Tuple]uint64
	for i := 0; i < 25; i++ {
		profile := engine.EndInterval()
		for tp, c := range profile {
			if c == 0 && prev[tp] < thresh {
				t.Errorf("interval %d: tuple %v reported with zero count, previous count %d below threshold %d",
					i, tp, prev[tp], thresh)
			}
		}
		prev = profile
		time.Sleep(time.Millisecond)
	}

	close(stop)
	wg.Wait()
	engine.EndInterval() // drain whatever the producers left behind
}

// TestCloseLeaksNoGoroutines builds and tears down engines and checks the
// goroutine count settles back to the baseline.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	checkGoroutines(t)
	for i := 0; i < 10; i++ {
		engine, err := New(Config{Core: baseConfig(), NumShards: 8, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		engine.ObserveBatch(workload(t, 5_000))
		engine.EndInterval()
		engine.Close()
	}
}

// TestDrainLeaksNoGoroutines: the salvage path must release the shard
// goroutines exactly like Close, with the partial profile intact.
func TestDrainLeaksNoGoroutines(t *testing.T) {
	checkGoroutines(t)
	for i := 0; i < 10; i++ {
		engine, err := New(Config{Core: baseConfig(), NumShards: 8, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		engine.ObserveBatch(workload(t, 5_000))
		profile, err := engine.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if len(profile) == 0 {
			t.Fatal("Drain lost the partial interval")
		}
	}
}

// TestCancellationLeaksNoGoroutines: cancelling a batched run over the
// engine mid-interval must stop the driver promptly and leave nothing
// behind once the engine is drained.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	checkGoroutines(t)
	engine, err := New(Config{Core: baseConfig(), NumShards: 4, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	src := event.FuncSource(func() (event.Tuple, bool) {
		events++
		if events == int(baseConfig().IntervalLength)/2 {
			cancel() // mid-interval: the driver must notice at the next batch
		}
		return event.Tuple{A: uint64(events % 64), B: 1}, true
	})
	_, err = core.RunBatchedContext(ctx, src, engine,
		core.RunConfig{IntervalLength: baseConfig().IntervalLength}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := engine.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringProduction: Close must drain gracefully even when
// producers race it; racing producers either land their events or no-op
// with ErrClosed recorded, and nothing panics or deadlocks.
func TestCloseDuringProduction(t *testing.T) {
	checkGoroutines(t)
	engine, err := New(Config{Core: baseConfig(), NumShards: 4, BatchSize: 16, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; i < 10_000; i++ {
				engine.Observe(event.Tuple{A: r.Uint64() % 64, B: 1})
			}
		}(uint64(p + 1))
	}
	time.Sleep(time.Millisecond)
	engine.Close()
	wg.Wait()
	// The only acceptable post-race error is the recorded use-after-close.
	if err := engine.Err(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("unexpected engine error: %v", err)
	}
}
