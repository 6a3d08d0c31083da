// Package core implements the paper's profiling architectures: the
// interval-based single-hash profiler (§5) and the multi-hash profiler with
// conservative update (§6), together with the perfect (oracle) profiler the
// evaluation compares against and a driver that runs a tuple stream through
// both.
//
// The single-hash architecture is the NumTables == 1 degenerate case of the
// multi-hash architecture (conservative update is a no-op with one table),
// so one implementation, MultiHash, serves both.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"hwprof/internal/counter"
)

// Default configuration values mirroring the paper's evaluated hardware:
// 2K total counters of 3 bytes each (6 KB, §7).
const (
	DefaultTotalEntries = 2048
	DefaultCounterWidth = counter.DefaultWidth
)

// Config describes one profiler configuration. The zero value is not
// valid; fill in at least IntervalLength, ThresholdPercent and
// TotalEntries, or start from one of the preset constructors in package
// hwprof.
type Config struct {
	// IntervalLength is the number of profiling events per interval
	// (10,000 and 1,000,000 in the paper).
	IntervalLength uint64

	// ThresholdPercent is the candidate threshold: the percentage of the
	// interval length a tuple must reach to be a candidate (1 and 0.1 in
	// the paper).
	ThresholdPercent float64

	// TotalEntries is the total number of hash-table counters across all
	// tables (2048 in the paper). It must be divisible by NumTables and
	// the per-table share must be a power of two.
	TotalEntries int

	// NumTables is the number of hash tables; 1 gives the single-hash
	// architecture of §5.
	NumTables int

	// CounterWidth is the hash counter width in bits (24 in the paper).
	CounterWidth uint

	// ConservativeUpdate enables the C1 optimization (§6.1): only the
	// minimum counter(s) among a tuple's n counters are incremented.
	ConservativeUpdate bool

	// ResetOnPromote enables the R1 optimization (§5.4.2): a tuple's hash
	// counters are zeroed when it is promoted to the accumulator.
	ResetOnPromote bool

	// Retain enables the P1 optimization (§5.4.1): above-threshold
	// accumulator entries survive the interval boundary as replaceable
	// entries with zeroed counts.
	Retain bool

	// NoShield disables shielding (§5.2) for ablation studies: resident
	// accumulator tuples keep updating the hash tables. The paper always
	// shields.
	NoShield bool

	// WeakHash replaces the paper's randomize/flip/xorfold hash family
	// with structure-preserving shifted xors, for the hash-quality
	// ablation. Never use it for real profiling.
	WeakHash bool

	// AccumCapacity overrides the accumulator size. Zero derives the
	// paper's bound of ceil(100 / ThresholdPercent) entries (§5.1).
	AccumCapacity int

	// Seed determines the hash functions' random byte tables. Two
	// profilers with equal Seed use identical hash functions.
	Seed uint64
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.IntervalLength == 0 {
		return fmt.Errorf("core: IntervalLength must be positive")
	}
	if !(c.ThresholdPercent > 0 && c.ThresholdPercent <= 100) || math.IsNaN(c.ThresholdPercent) {
		return fmt.Errorf("core: ThresholdPercent %v must be in (0, 100]", c.ThresholdPercent)
	}
	if c.TotalEntries <= 0 {
		return fmt.Errorf("core: TotalEntries %d must be positive", c.TotalEntries)
	}
	if c.NumTables < 1 {
		return fmt.Errorf("core: NumTables %d must be >= 1", c.NumTables)
	}
	if c.TotalEntries%c.NumTables != 0 {
		return fmt.Errorf("core: TotalEntries %d not divisible by NumTables %d", c.TotalEntries, c.NumTables)
	}
	per := c.TotalEntries / c.NumTables
	if bits.OnesCount(uint(per)) != 1 {
		return fmt.Errorf("core: per-table size %d must be a power of two", per)
	}
	if c.CounterWidth < 1 || c.CounterWidth > 64 {
		return fmt.Errorf("core: CounterWidth %d out of range [1,64]", c.CounterWidth)
	}
	if c.ThresholdCount() > (uint64(1)<<c.CounterWidth)-1 {
		return fmt.Errorf("core: threshold count %d does not fit in %d-bit counters", c.ThresholdCount(), c.CounterWidth)
	}
	if c.AccumCapacity < 0 {
		return fmt.Errorf("core: AccumCapacity %d must be non-negative", c.AccumCapacity)
	}
	return nil
}

// ThresholdCount returns the absolute occurrence count a tuple needs within
// an interval to be a candidate: ceil(ThresholdPercent% × IntervalLength),
// and at least 1.
func (c Config) ThresholdCount() uint64 {
	t := uint64(math.Ceil(c.ThresholdPercent / 100 * float64(c.IntervalLength)))
	if t == 0 {
		t = 1
	}
	return t
}

// EffectiveAccumCapacity returns the accumulator capacity in use: the
// explicit AccumCapacity if set, else the paper's worst-case bound
// ceil(100 / ThresholdPercent).
func (c Config) EffectiveAccumCapacity() int {
	if c.AccumCapacity > 0 {
		return c.AccumCapacity
	}
	return int(math.Ceil(100 / c.ThresholdPercent))
}

// PerTableEntries returns the entry count of each hash table.
func (c Config) PerTableEntries() int { return c.TotalEntries / c.NumTables }

// indexBits returns log2 of the per-table size.
func (c Config) indexBits() uint {
	return uint(bits.TrailingZeros(uint(c.PerTableEntries())))
}

// String summarizes the configuration using the paper's notation, e.g.
// "4×512 C1 R0 P1 interval=1000000 t=0.1%".
func (c Config) String() string {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return fmt.Sprintf("%d×%d C%d R%d P%d interval=%d t=%g%%",
		c.NumTables, c.PerTableEntries(),
		b(c.ConservativeUpdate), b(c.ResetOnPromote), b(c.Retain),
		c.IntervalLength, c.ThresholdPercent)
}
