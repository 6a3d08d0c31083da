package main

import (
	"fmt"
	"time"

	"hwprof"
)

// Params fixes everything a workload's figures depend on. It is recorded
// with every result, and compare refuses result sets whose Params differ.
type Params struct {
	Name string `json:"name"`

	// Stream is the synthetic analog the inputs come from, generated from
	// the run's seed before any timing; StreamEvents of it are generated
	// and replayed cyclically for as long as the run lasts.
	Stream       string `json:"stream"`
	StreamEvents int    `json:"stream_events"`

	// Config is the profiler geometry; Shards the engine's shard count.
	Config hwprof.Config `json:"config"`
	Shards int           `json:"shards"`

	// Remote selects the daemon path (hwprof.Connect) over the library
	// path (hwprof.Profile). Frame is the batch size: events per frame on
	// the wire, events per source batch locally.
	Remote bool `json:"remote"`
	Frame  int  `json:"frame_events"`

	// Rate and Tick make the load open-loop: each tick sends the events
	// due by then and flushes. A zero Rate is a closed loop, which on the
	// remote path keeps at most InFlight intervals unanswered: the events
	// of interval i go out once profile i-InFlight is back.
	Rate     float64       `json:"rate_events_per_s,omitempty"`
	Tick     time.Duration `json:"tick_ns,omitempty"`
	InFlight int           `json:"in_flight_intervals,omitempty"`

	// Procs, when set, is the GOMAXPROCS of the daemon and of this
	// process while the workload is measured, so that the two together
	// run no more threads at once than the host has cores.
	Procs int `json:"gomaxprocs,omitempty"`

	// DaemonFlags are the profiled flags beyond the loopback listeners;
	// Journal gives the daemon a per-run temporary journal directory.
	DaemonFlags []string `json:"daemon_flags,omitempty"`
	Journal     bool     `json:"journal"`
	Subscribe   bool     `json:"subscribe"`

	// ReplayEvents bounds the traced layer replay.
	ReplayEvents int `json:"replay_events"`
}

// On the remote workloads, setup_s is the median of setupRepeats
// set-ups.
const setupRepeats = 7

// L is the workload's interval length in events.
func (p Params) L() int { return int(p.Config.IntervalLength) }

// ReplayFrame is the frame size of the layer replay: the events one tick
// carries on an open loop, the workload's frame otherwise.
func (p Params) ReplayFrame() int {
	if p.Rate > 0 {
		return int(p.Rate * p.Tick.Seconds())
	}
	return p.Frame
}

// pacedRate is the durable-paced offered load: a third of what the
// workload's own daemon, journaling and publishing to a subscriber,
// sustains closed-loop (-closed-loop). On a 2-vCPU x86-64 VM that was a
// median of 4.94M events/s over ten seeds (quartiles 4.70M and 5.11M).
const pacedRate = 1_650_000

var workloads = []Params{
	{
		Name:         "local-long",
		Stream:       "gcc",
		StreamEvents: 8_000_000,
		Config:       hwprof.BestMultiHash(hwprof.LongIntervalConfig()),
		Shards:       1,
		Frame:        512,
		ReplayEvents: 8_000_000,
	},
	{
		Name:         "remote-short",
		Stream:       "gcc",
		StreamEvents: 4_160_000, // a multiple of both the interval and the frame
		Config:       hwprof.BestMultiHash(hwprof.ShortIntervalConfig()),
		Shards:       1,
		Remote:       true,
		Frame:        512,
		// A deeper window, or more than one P per process, made the
		// throughput switch between two levels every few seconds on a
		// two-core host (README.md, Workloads).
		InFlight:     1,
		Procs:        1,
		ReplayEvents: 2_000_000,
	},
	{
		Name:         "durable-paced",
		Stream:       "gcc",
		StreamEvents: 4_160_000, // a multiple of both the interval and the frame
		Config:       hwprof.BestMultiHash(hwprof.ShortIntervalConfig()),
		Shards:       1,
		Remote:       true,
		Frame:        512,
		Rate:         pacedRate,
		Tick:         250 * time.Microsecond,
		DaemonFlags:  []string{"-publish", "-epoch-length", "10000", "-journal-sync", "interval"},
		Journal:      true,
		Subscribe:    true,
		ReplayEvents: 2_000_000,
	},
}

func workloadByName(name string) (Params, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return Params{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// generate draws the workload's input stream from the seed.
func generate(p Params, seed uint64) ([]hwprof.Tuple, error) {
	src, err := hwprof.NewWorkload(p.Stream, hwprof.KindValue, seed)
	if err != nil {
		return nil, err
	}
	b := hwprof.Batched(src)
	out := make([]hwprof.Tuple, p.StreamEvents)
	for got := 0; got < len(out); {
		n := b.NextBatch(out[got:])
		if n == 0 {
			return nil, fmt.Errorf("stream %s ended after %d events: %v", p.Stream, got, b.Err())
		}
		got += n
	}
	return out, nil
}

// cyclic is the workload stream repeated end to end: event k of a run is
// stream[k mod len(stream)]. It yields limit events, or forever when limit
// is negative.
type cyclic struct {
	stream []hwprof.Tuple
	pos    int
	limit  int
}

func (c *cyclic) Next() (hwprof.Tuple, bool) {
	var one [1]hwprof.Tuple
	if c.NextBatch(one[:]) == 0 {
		return hwprof.Tuple{}, false
	}
	return one[0], true
}

func (c *cyclic) Err() error { return nil }

func (c *cyclic) NextBatch(buf []hwprof.Tuple) int {
	if c.limit >= 0 && len(buf) > c.limit-c.pos {
		buf = buf[:c.limit-c.pos]
	}
	n := 0
	for n < len(buf) {
		off := c.pos % len(c.stream)
		k := copy(buf[n:], c.stream[off:])
		n += k
		c.pos += k
	}
	return n
}

// slice returns events [from, from+n) of the cyclic stream, copying only
// when the range wraps.
func (c *cyclic) slice(from, n int) []hwprof.Tuple {
	off := from % len(c.stream)
	if off+n <= len(c.stream) {
		return c.stream[off : off+n]
	}
	out := make([]hwprof.Tuple, n)
	(&cyclic{stream: c.stream, pos: from, limit: from + n}).NextBatch(out)
	return out
}
