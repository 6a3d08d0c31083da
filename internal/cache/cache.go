// Package cache implements a set-associative data-cache simulator with
// true-LRU replacement.
//
// The paper's first motivating optimization (§2) is cache replacement and
// prefetching guided by a run-time profile of the loads that miss: "in
// many cases a large percentage of data cache misses are caused by a very
// small number of instructions". This simulator supplies that substrate:
// a program's loads stream through the cache, each miss becomes a
// profiling event, and the multi-hash profiler identifies the delinquent
// loads — see internal/opt and examples/delinquent.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity. It must equal
	// Sets × Ways × LineBytes with power-of-two sets and line size.
	SizeBytes int
	// Ways is the associativity (1 = direct mapped).
	Ways int
	// LineBytes is the line size in bytes (power of two).
	LineBytes int
}

// Validate reports whether the geometry is realizable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: size %d, ways %d, line %d must all be positive",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	if bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("cache: line size %d must be a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways×line %d", c.SizeBytes, c.Ways*c.LineBytes)
	}
	sets := c.Sets()
	if sets == 0 || bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache: set count %d must be a positive power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg       Config
	sets      [][]line
	setMask   uint64
	lineShift uint
	clock     uint64

	// Accesses and Misses count since construction (or last ResetStats).
	Accesses uint64
	Misses   uint64
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]line, cfg.Sets())
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint64(cfg.Sets() - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}, nil
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Access touches addr and reports whether it hit. A miss fills the line,
// evicting the set's LRU line if needed.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.clock++
	tag := addr >> c.lineShift
	set := c.sets[tag&c.setMask]
	victim := 0
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			return true
		}
		if !set[i].valid || set[i].used < set[victim].used {
			// Prefer invalid lines, then the least recently used. An
			// invalid line has used == 0, which is older than any touch.
			victim = i
		}
	}
	c.Misses++
	set[victim] = line{tag: tag, valid: true, used: c.clock}
	return false
}

// MissRate returns Misses / Accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats zeroes the counters without disturbing cache contents.
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }

// Flush invalidates every line and zeroes the statistics.
func (c *Cache) Flush() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = line{}
		}
	}
	c.clock = 0
	c.ResetStats()
}
