// Package adaptive implements the extension the paper proposes in §5.6.1:
// "different interval lengths suit different programs ... one can
// potentially adaptively pick the appropriate interval length for a given
// program."
//
// The controller watches the candidate-set variation between consecutive
// intervals (the Figure 6 quantity). Sustained high variation means the
// interval is too long to track the program's phases, so the controller
// halves it; sustained low variation means the profile is stable and a
// longer interval would cut per-boundary work and catch rarer candidates,
// so it doubles. The candidate *threshold percentage* is held constant —
// as in the paper, the absolute threshold count scales with the interval
// — and the profiler hardware is rebuilt at each adaptation, modeling a
// reconfiguration (retained candidates are deliberately dropped: the old
// threshold no longer means the same thing).
//
// The rule itself lives only in Elastic's accuracy axis (elastic.go): the
// offline Profiler and the daemon's session controller both run it.
package adaptive

import (
	"fmt"

	"hwprof/internal/core"
	"hwprof/internal/event"
)

// Config parameterizes the controller.
type Config struct {
	// Base is the profiler configuration; Base.IntervalLength is the
	// starting interval length.
	Base core.Config

	// MinLength and MaxLength bound the adapted interval length.
	MinLength, MaxLength uint64

	// ShrinkAbove is the candidate-variation percentage (0–100) above
	// which the interval halves; GrowBelow the percentage below which it
	// doubles. ShrinkAbove must exceed GrowBelow.
	ShrinkAbove, GrowBelow float64

	// Settle is how many interval boundaries must pass after an
	// adaptation before the controller adapts again (damping). The
	// boundary right after an adaptation is the first at the new length
	// and has no variation to act on, so adaptations are always at least
	// two boundaries apart: Settle 0 and Settle 1 behave the same.
	Settle int
}

// Validate reports whether the configuration is coherent.
func (c Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.MinLength == 0 || c.MaxLength < c.MinLength {
		return fmt.Errorf("adaptive: bad length bounds [%d, %d]", c.MinLength, c.MaxLength)
	}
	if c.Base.IntervalLength < c.MinLength || c.Base.IntervalLength > c.MaxLength {
		return fmt.Errorf("adaptive: start length %d outside [%d, %d]",
			c.Base.IntervalLength, c.MinLength, c.MaxLength)
	}
	if !(c.ShrinkAbove > c.GrowBelow) || c.ShrinkAbove > 100 || c.GrowBelow < 0 {
		return fmt.Errorf("adaptive: bad variation thresholds shrink>%v grow<%v",
			c.ShrinkAbove, c.GrowBelow)
	}
	if c.Settle < 0 {
		return fmt.Errorf("adaptive: negative settle %d", c.Settle)
	}
	return nil
}

// Direction says what an adaptation did.
type Direction int

// Adaptation outcomes.
const (
	Kept   Direction = 0
	Shrunk Direction = -1
	Grown  Direction = 1
)

// Boundary describes one completed interval.
type Boundary struct {
	// Profile is the hardware profile of the finished interval.
	Profile map[event.Tuple]uint64
	// Length is the interval's length in events.
	Length uint64
	// ThresholdCount is the candidate threshold that applied.
	ThresholdCount uint64
	// Variation is the candidate-set change versus the previous interval
	// in percent (0 for the first interval at a given length).
	Variation float64
	// Adapted reports whether this boundary changed the interval length.
	Adapted Direction
}

// Profiler is an interval-length-adapting wrapper around the multi-hash
// profiler. Its decisions are Elastic's accuracy axis at one shard with no
// queue: nothing reads as pressure, so only the §5.6.1 rule ever proposes.
type Profiler struct {
	cfg     Config
	cur     uint64
	inner   *core.MultiHash
	events  uint64
	elastic *Elastic
}

// New builds an adaptive profiler.
func New(cfg Config) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Profiler{cfg: cfg, cur: cfg.Base.IntervalLength}
	a.elastic = NewElastic(ElasticConfig{
		Admitted:    a.geometry(),
		Tables:      cfg.Base.NumTables,
		MinLength:   cfg.MinLength,
		MaxLength:   cfg.MaxLength,
		ShrinkAbove: cfg.ShrinkAbove,
		GrowBelow:   cfg.GrowBelow,
		HighWater:   1, // QueueLen is always 0: never pressure
		Engage:      1,
		Settle:      max(cfg.Settle, 1), // Elastic reads 0 as its default of 4
	})
	if err := a.rebuild(); err != nil {
		return nil, err
	}
	return a, nil
}

// geometry is the profiler's current shape in the controller's terms.
func (a *Profiler) geometry() Geometry {
	return Geometry{IntervalLength: a.cur, TotalEntries: a.cfg.Base.TotalEntries, Shards: 1}
}

// rebuild constructs the inner profiler for the current length.
func (a *Profiler) rebuild() error {
	c := a.cfg.Base
	c.IntervalLength = a.cur
	inner, err := core.NewMultiHash(c)
	if err != nil {
		return fmt.Errorf("adaptive: rebuilding at length %d: %w", a.cur, err)
	}
	a.inner = inner
	return nil
}

// IntervalLength returns the current interval length.
func (a *Profiler) IntervalLength() uint64 { return a.cur }

// ThresholdCount returns the current absolute candidate threshold.
func (a *Profiler) ThresholdCount() uint64 {
	c := a.cfg.Base
	c.IntervalLength = a.cur
	return c.ThresholdCount()
}

// Observe feeds one event. At an interval boundary it returns the
// boundary record (and possibly adapts); otherwise it returns nil.
func (a *Profiler) Observe(tp event.Tuple) (*Boundary, error) {
	a.inner.Observe(tp)
	a.events++
	if a.events < a.cur {
		return nil, nil
	}
	a.events = 0

	thresh := a.ThresholdCount()
	profile := a.inner.EndInterval()
	_, variation := a.elastic.ObserveProfile(profile, thresh)
	b := &Boundary{
		Profile:        profile,
		Length:         a.cur,
		ThresholdCount: thresh,
		Variation:      max(variation, 0),
	}
	cur := a.geometry()
	act, ok := a.elastic.Boundary(Signals{Cur: cur, Variation: variation})
	if !ok {
		return b, nil
	}
	switch act.Op {
	case OpShrinkInterval:
		b.Adapted = Shrunk
	case OpGrowInterval:
		b.Adapted = Grown
	}
	a.elastic.Commit(act, cur)
	a.cur = act.Geometry.IntervalLength
	if err := a.rebuild(); err != nil {
		return nil, err
	}
	return b, nil
}

// VariationPct is the percentage of the combined candidate set that
// changed across a boundary — |symmetric difference| / |union| × 100, the
// Figure 6 quantity. Identical sets give 0, disjoint sets 100, and two
// empty sets 0.
func VariationPct(prev, next map[event.Tuple]bool) float64 {
	if len(prev) == 0 && len(next) == 0 {
		return 0
	}
	union, inter := 0, 0
	for t := range prev {
		union++
		if next[t] {
			inter++
		}
	}
	for t := range next {
		if !prev[t] {
			union++
		}
	}
	return 100 * float64(union-inter) / float64(union)
}
