package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"runtime/debug"
	"time"

	"hwprof"
	"hwprof/internal/scenario"
)

// timedSource hands the workload stream to hwprof.Profile and notes when
// the first event went in and when each interval's last event did. The
// batched loop inside Profile clips its reads at interval boundaries, so
// a read that ends on a multiple of the interval length carries that
// interval's last event.
type timedSource struct {
	stream []hwprof.Tuple
	pos, l int
	first  time.Time
	last   []time.Time
}

func (s *timedSource) Next() (hwprof.Tuple, bool) {
	var one [1]hwprof.Tuple
	if s.NextBatch(one[:]) == 0 {
		return hwprof.Tuple{}, false
	}
	return one[0], true
}

func (s *timedSource) Err() error { return nil }

func (s *timedSource) NextBatch(buf []hwprof.Tuple) int {
	if s.pos == 0 {
		s.first = time.Now()
	}
	n := copy(buf, s.stream[s.pos:])
	s.pos += n
	if n > 0 && s.pos%s.l == 0 {
		s.last = append(s.last, time.Now())
	}
	return n
}

// profilePass is one hwprof.Profile pass over the stream: when the call
// was made, when each interval's last event went in and its profile came
// out, every profile's digest, and the profiles themselves if kept.
type profilePass struct {
	call     time.Time
	src      *timedSource
	recv     []time.Time
	digests  []uint32
	profiles []map[hwprof.Tuple]uint64
}

// runPass makes one pass, keeping its profiles if keep is set.
func runPass(p Params, stream []hwprof.Tuple, keep bool) (*profilePass, error) {
	per := len(stream) / p.L()
	r := &profilePass{
		src:     &timedSource{stream: stream, l: p.L()},
		recv:    make([]time.Time, 0, per),
		digests: make([]uint32, 0, per),
	}
	r.call = time.Now()
	n, err := hwprof.Profile(context.Background(), r.src,
		hwprof.WithConfig(p.Config), hwprof.WithShards(p.Shards), hwprof.WithBatchSize(p.Frame),
		hwprof.WithoutOracle(), hwprof.WithProfileReuse(),
		hwprof.OnInterval(func(i int, _, h map[hwprof.Tuple]uint64) {
			r.recv = append(r.recv, time.Now())
			r.digests = append(r.digests, scenario.Digest(i, h))
			if keep {
				r.profiles = append(r.profiles, maps.Clone(h))
			}
		}))
	if err != nil {
		return nil, err
	}
	if n != per || len(r.src.last) != per {
		return nil, fmt.Errorf("%d intervals delivered, %d events sent in %d, want %d", n, r.src.pos, len(r.src.last), per)
	}
	return r, nil
}

// runLocal measures the library path: hwprof.Profile passes over the
// generated stream, each building its own engine, until the time is up.
// Every pass's digests go to the reference check. One more pass, after
// the window, keeps its profiles for the accuracy figures and the tamper
// self-test, so that no measured pass holds copies of its profiles.
// Traced, each measured pass records a span for Profile's set-up and one
// per interval, from the handover of its first event to its callback.
func runLocal(p Params, stream []hwprof.Tuple, seconds time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	per := len(stream) / p.L()
	start := time.Now()
	for pass := 0; pass < 3 || time.Since(start) < seconds; pass++ {
		// The peak resident set is the engine's: before each pass, outside
		// the timing, the garbage of the last one is collected and every
		// free page returned to the system, and the peak is reset to what
		// the process then holds, the stream included. A pass's figure is
		// how far its peak rose above that.
		debug.FreeOSMemory()
		base, err := resetPeakRSS()
		if err != nil {
			return nil, err
		}
		cpu0 := selfCPU()
		r, err := runPass(p, stream, false)
		m.cpu += selfCPU() - cpu0
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		m.setup = append(m.setup, r.src.first.Sub(r.call).Seconds())
		d := r.recv[per-1].Sub(r.src.first)
		m.wall += d
		m.events += len(stream)
		m.intervals += per
		for i := range r.recv {
			m.interval = append(m.interval, ms(r.recv[i].Sub(r.src.last[i])))
		}
		m.passes = append(m.passes, r.digests)
		peak, err := peakRSS(os.Getpid())
		if err != nil {
			return nil, err
		}
		m.rss = append(m.rss, peak-base)
		if tr != nil {
			tr.add("profile.setup", pass*per, -1, r.call, r.src.first)
			from := r.src.first
			for i := range r.recv {
				tr.add("e2e.interval", pass*per+i, -1, from, r.recv[i])
				from = r.src.last[i]
			}
		}
	}
	r, err := runPass(p, stream, true)
	if err != nil {
		return nil, fmt.Errorf("kept pass: %w", err)
	}
	m.profiles = r.profiles
	m.passes = append(m.passes, r.digests)
	m.intervals += per
	return m, nil
}
