// Package stratified implements the Stratified Sampler of Sastry, Bodik
// and Smith (ISCA 2001) as described in the paper's §4.2 — the hybrid
// hardware/software baseline the Multi-Hash architecture is positioned
// against.
//
// A table of counters is indexed by hashing the input tuple. Each entry
// carries a partial tag, a hit counter and a miss counter. When a tuple's
// hit counter reaches the sampling threshold it is reset and a sample is
// emitted. Samples pass through a small fully-associative aggregation
// table; aggregated samples are flushed into a message buffer, and when the
// buffer fills the operating system is "interrupted" to drain it. The
// software side reconstructs estimated frequencies as samples ×
// samplingThreshold.
//
// Unlike the Multi-Hash profiler this design depends on software to
// accumulate the profile; the simulation counts the interrupts and messages
// that dependence costs.
package stratified

import (
	"fmt"

	"hwprof/internal/event"
	"hwprof/internal/hashfn"
)

// Config describes a stratified sampler.
type Config struct {
	// TableEntries is the size of the counter table; it must be a power
	// of two.
	TableEntries int

	// SamplingThreshold is the count at which an entry emits a sample and
	// resets (the sampler's sampling period).
	SamplingThreshold uint64

	// AggEntries is the size of the associative aggregation table placed
	// before the message buffer (§4.2). Zero disables aggregation.
	AggEntries int

	// AggFlushCount is the aggregated sample count at which an
	// aggregation entry is flushed to the buffer.
	AggFlushCount uint64

	// BufferEntries is the message buffer size; the OS is interrupted
	// when the buffer fills (100 in Sastry et al.'s study).
	BufferEntries int

	// TagBits is the partial-tag width used to detect aliasing. Zero
	// disables tags (the paper's "simple design").
	TagBits uint

	// Seed selects the hash function.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0 {
		return fmt.Errorf("stratified: TableEntries %d must be a positive power of two", c.TableEntries)
	}
	if c.SamplingThreshold == 0 {
		return fmt.Errorf("stratified: SamplingThreshold must be positive")
	}
	if c.AggEntries < 0 {
		return fmt.Errorf("stratified: AggEntries %d must be non-negative", c.AggEntries)
	}
	if c.AggEntries > 0 && c.AggFlushCount == 0 {
		return fmt.Errorf("stratified: AggFlushCount must be positive when aggregation is enabled")
	}
	if c.BufferEntries <= 0 {
		return fmt.Errorf("stratified: BufferEntries %d must be positive", c.BufferEntries)
	}
	if c.TagBits > 32 {
		return fmt.Errorf("stratified: TagBits %d out of range [0,32]", c.TagBits)
	}
	return nil
}

// tableEntry is one counter-table row.
type tableEntry struct {
	tag    uint32
	tuple  event.Tuple // the resident tuple (what the tag abbreviates)
	valid  bool
	hits   uint64
	misses uint64
}

// aggEntry is one aggregation-table row.
type aggEntry struct {
	tuple   event.Tuple
	samples uint64
	valid   bool
}

// Sampler is a stratified sampler instance.
type Sampler struct {
	cfg   Config
	hash  *hashfn.Func
	tagFn *hashfn.Func
	table []tableEntry
	agg   []aggEntry
	buf   int // current buffer occupancy, in messages

	// software-side accumulation
	samples map[event.Tuple]uint64

	// Interrupts counts buffer-full OS interrupts so far.
	Interrupts uint64
	// Messages counts messages pushed into the buffer so far.
	Messages uint64
	// Events counts observed tuples so far.
	Events uint64
}

// New builds a stratified sampler.
func New(cfg Config) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bitsFor := func(n int) uint {
		b := uint(0)
		for 1<<b < n {
			b++
		}
		return b
	}
	h, err := hashfn.New(cfg.Seed, bitsFor(cfg.TableEntries))
	if err != nil {
		return nil, fmt.Errorf("stratified: building hash: %w", err)
	}
	var tagFn *hashfn.Func
	if cfg.TagBits > 0 {
		tagFn, err = hashfn.New(cfg.Seed+0x7461, cfg.TagBits)
		if err != nil {
			return nil, fmt.Errorf("stratified: building tag hash: %w", err)
		}
	}
	return &Sampler{
		cfg:     cfg,
		hash:    h,
		tagFn:   tagFn,
		table:   make([]tableEntry, cfg.TableEntries),
		agg:     make([]aggEntry, cfg.AggEntries),
		samples: make(map[event.Tuple]uint64),
	}, nil
}

// Observe feeds one tuple through the sampler.
func (s *Sampler) Observe(tp event.Tuple) {
	s.Events++
	e := &s.table[s.hash.Index(tp)]

	if s.tagFn != nil {
		tag := s.tagFn.Index(tp)
		switch {
		case !e.valid:
			e.valid = true
			e.tag = tag
			e.tuple = tp
			e.hits = 0
			e.misses = 0
		case e.tag != tag:
			// Aliasing: bump the miss counter; if the resident tuple is
			// losing, replace it (Sastry et al.'s miss-driven policy).
			e.misses++
			if e.misses > e.hits {
				e.tag = tag
				e.tuple = tp
				e.hits = 0
				e.misses = 0
			} else {
				return
			}
		}
	} else if !e.valid {
		e.valid = true
		e.tuple = tp
	}

	e.hits++
	if e.hits >= s.cfg.SamplingThreshold {
		e.hits = 0
		// Without tags the sample is attributed to the current tuple —
		// aliased tuples smear, which is exactly the simple design's
		// error source.
		s.emit(tp)
	}
}

// emit routes one sample through the aggregation table (if any) into the
// buffer.
func (s *Sampler) emit(tp event.Tuple) {
	if s.cfg.AggEntries == 0 {
		s.push(tp, 1)
		return
	}
	// Fully associative search.
	var free *aggEntry
	for i := range s.agg {
		a := &s.agg[i]
		if a.valid && a.tuple == tp {
			a.samples++
			if a.samples >= s.cfg.AggFlushCount {
				s.push(tp, a.samples)
				a.valid = false
			}
			return
		}
		if !a.valid && free == nil {
			free = a
		}
	}
	if free != nil {
		free.valid = true
		free.tuple = tp
		free.samples = 1
		return
	}
	// Capacity eviction: flush the first entry to software and take its
	// slot (deterministic stand-in for the paper's replacement).
	victim := &s.agg[0]
	s.push(victim.tuple, victim.samples)
	victim.tuple = tp
	victim.samples = 1
}

// push places an aggregated sample message in the buffer, interrupting the
// OS when the buffer is full.
func (s *Sampler) push(tp event.Tuple, samples uint64) {
	s.Messages++
	s.samples[tp] += samples
	s.buf++
	if s.buf >= s.cfg.BufferEntries {
		s.buf = 0
		s.Interrupts++
	}
}

// EndInterval returns the software-side estimated profile for the interval
// just finished (samples × SamplingThreshold per tuple) and clears the
// software accumulation. Hardware table state persists across intervals,
// as in the original design. Pending aggregation-table samples are flushed
// into the estimate first so short intervals are not undercounted.
func (s *Sampler) EndInterval() map[event.Tuple]uint64 {
	for i := range s.agg {
		a := &s.agg[i]
		if a.valid {
			s.push(a.tuple, a.samples)
			a.valid = false
		}
	}
	out := make(map[event.Tuple]uint64, len(s.samples))
	for tp, n := range s.samples {
		out[tp] = n * s.cfg.SamplingThreshold
	}
	s.samples = make(map[event.Tuple]uint64)
	return out
}
