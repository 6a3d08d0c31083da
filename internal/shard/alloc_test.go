//go:build !race

package shard

// Race instrumentation allocates shadow memory on its own, so the
// allocation gate runs only in non-race builds.

import "testing"

// TestOneShardRecyclesWithoutAllocating: a one-shard engine whose caller
// recycles its profiles allocates nothing per batch or per interval
// boundary, on the producer side or in the worker.
func TestOneShardRecyclesWithoutAllocating(t *testing.T) {
	cfg := Config{Core: baseConfig(), NumShards: 1}
	engine := newEngine(t, cfg)
	tuples := workload(t, cfg.Core.IntervalLength)
	interval := func() {
		// Batch lengths that never line up with the engine's buffers.
		for lo := 0; lo < len(tuples); lo += 1000 {
			engine.ObserveBatch(tuples[lo:min(lo+1000, len(tuples))])
		}
		engine.Recycle(engine.EndInterval())
	}
	interval() // warm the snapshot maps and the buffer pool
	if n := testing.AllocsPerRun(10, interval); n != 0 {
		t.Errorf("steady-state interval allocates %.1f times, want 0", n)
	}
}
