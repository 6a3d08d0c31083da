package main

import (
	"time"

	"hwprof"
)

// measurement is what one timed window of a workload produced: the raw
// samples the end-to-end metrics are computed from, plus the delivered
// profiles the reference check compares.
type measurement struct {
	events int           // events handed to the system in the window
	wall   time.Duration // first event in until the last profile received, over all passes
	cpu    time.Duration // CPU of this process plus the daemon over the window

	interval  []float64 // per-interval delivery latency, ms
	epoch     []float64 // per-epoch delivery latency, ms
	setup     []float64 // set-up times, s
	ready     []float64 // daemon spawn until listening, ms
	open      []float64 // hwprof.Connect duration, ms
	late      []float64 // open-loop generator lateness per tick, ms
	frames    int       // batch frames sent
	rss       []float64 // peak resident set of the engine's process, MB
	intervals int       // complete intervals in the stream sent

	// profiles and epochs hold the delivered profiles in index order, nil
	// where a delivery failed. passes holds, for the library path, each
	// pass's digests.
	profiles []map[hwprof.Tuple]uint64
	epochs   []map[hwprof.Tuple]uint64
	passes   [][]uint32

	// server holds /metrics figures read at the end of a traced window.
	server map[string]float64
	queue  []float64 // sampled hwprof_queue_depth
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
