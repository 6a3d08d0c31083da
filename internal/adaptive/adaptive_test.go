package adaptive

import (
	"testing"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/synth"
	"hwprof/internal/xrand"
)

func baseConfig(start uint64) Config {
	b := core.BestMultiHash(core.ShortIntervalConfig())
	b.IntervalLength = start
	b.Seed = 5
	return Config{
		Base:        b,
		MinLength:   1_000,
		MaxLength:   1_000_000,
		ShrinkAbove: 60,
		GrowBelow:   10,
		Settle:      1,
	}
}

func TestValidate(t *testing.T) {
	ok := baseConfig(10_000)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(*Config){
		"base invalid":     func(c *Config) { c.Base.TotalEntries = 0 },
		"zero min":         func(c *Config) { c.MinLength = 0 },
		"max < min":        func(c *Config) { c.MaxLength = c.MinLength - 1 },
		"start below min":  func(c *Config) { c.Base.IntervalLength = 500 },
		"start above max":  func(c *Config) { c.Base.IntervalLength = 2_000_000 },
		"thresholds cross": func(c *Config) { c.ShrinkAbove = 5; c.GrowBelow = 50 },
		"negative settle":  func(c *Config) { c.Settle = -1 },
	}
	for name, mutate := range bad {
		c := baseConfig(10_000)
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// run feeds n events from src and returns the boundaries.
func run(t *testing.T, a *Profiler, src event.Source, n uint64) []*Boundary {
	t.Helper()
	var out []*Boundary
	for i := uint64(0); i < n; i++ {
		tp, ok := src.Next()
		if !ok {
			t.Fatal("stream ended")
		}
		b, err := a.Observe(tp)
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

// stableSource yields the same few hot tuples throughout: minimal
// variation. The n tuples are pre-generated into a SliceSource so the
// stream is replayable and batch-capable.
func stableSource(seed uint64, n int) event.Source {
	r := xrand.New(seed)
	tuples := make([]event.Tuple, n)
	for i := range tuples {
		if r.Intn(10) < 8 {
			tuples[i] = event.Tuple{A: uint64(r.Intn(5)), B: 1}
		} else {
			tuples[i] = event.Tuple{A: r.Uint64(), B: 2} // unique noise
		}
	}
	return event.NewSliceSource(tuples)
}

// churnSource changes its hot set every `dwell` events. Note the scale
// matters (paper §5.6.1): intervals much *longer* than the dwell average
// over all phases and look stable; variation peaks when the interval is
// comparable to the dwell, so that consecutive intervals see different
// phases.
func churnSource(seed, dwell uint64, n int) event.Source {
	r := xrand.New(seed)
	tuples := make([]event.Tuple, n)
	for i := range tuples {
		epoch := uint64(i+1) / dwell
		if r.Intn(10) < 8 {
			tuples[i] = event.Tuple{A: epoch<<32 | uint64(r.Intn(5)), B: 1}
		} else {
			tuples[i] = event.Tuple{A: r.Uint64(), B: 2}
		}
	}
	return event.NewSliceSource(tuples)
}

func TestGrowsOnStableWorkload(t *testing.T) {
	a, err := New(baseConfig(10_000))
	if err != nil {
		t.Fatal(err)
	}
	run(t, a, stableSource(1, 400_000), 400_000)
	if a.IntervalLength() <= 10_000 {
		t.Fatalf("interval did not grow on a stable workload: %d", a.IntervalLength())
	}
}

func TestShrinksOnChurningWorkload(t *testing.T) {
	a, err := New(baseConfig(64_000))
	if err != nil {
		t.Fatal(err)
	}
	// Hot set churns every ~interval: consecutive intervals see different
	// candidate sets, so the controller must shrink at least once.
	bs := run(t, a, churnSource(2, 50_000, 600_000), 600_000)
	shrunk := false
	for _, b := range bs {
		if b.Adapted == Shrunk {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatalf("no shrink adaptation on a churning workload (final length %d)", a.IntervalLength())
	}
}

func TestRespectsBounds(t *testing.T) {
	cfg := baseConfig(10_000)
	cfg.MinLength = 5_000
	cfg.MaxLength = 20_000
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(t, a, stableSource(3, 500_000), 500_000)
	if a.IntervalLength() > 20_000 {
		t.Fatalf("interval %d above MaxLength", a.IntervalLength())
	}
	a2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(t, a2, churnSource(4, 500, 500_000), 500_000)
	if a2.IntervalLength() < 5_000 {
		t.Fatalf("interval %d below MinLength", a2.IntervalLength())
	}
}

func TestThresholdScalesWithLength(t *testing.T) {
	a, err := New(baseConfig(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if a.ThresholdCount() != 100 {
		t.Fatalf("threshold at 10K = %d", a.ThresholdCount())
	}
	run(t, a, stableSource(5, 400_000), 400_000)
	if a.IntervalLength() > 10_000 {
		want := a.IntervalLength() / 100 // 1% threshold
		if a.ThresholdCount() != want {
			t.Fatalf("threshold %d at length %d, want %d",
				a.ThresholdCount(), a.IntervalLength(), want)
		}
	}
}

func TestBoundariesCarryProfiles(t *testing.T) {
	a, err := New(baseConfig(10_000))
	if err != nil {
		t.Fatal(err)
	}
	bs := run(t, a, stableSource(6, 50_000), 50_000)
	if len(bs) == 0 {
		t.Fatal("no boundaries")
	}
	for _, b := range bs {
		if b.Length == 0 || b.ThresholdCount == 0 {
			t.Fatalf("boundary missing metadata: %+v", b)
		}
		found := false
		for _, n := range b.Profile {
			if n >= b.ThresholdCount {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("boundary profile has no candidates on a hot workload")
		}
	}
}

func TestSettleDamping(t *testing.T) {
	// No two adaptations may be closer than Settle+1 boundaries apart. The
	// boundary after an adaptation is the first at the new length and has
	// no variation to act on, so Settle 0 spaces them like Settle 1: two
	// apart. On a stable workload the closest pair is exactly that far.
	for _, settle := range []int{3, 0} {
		cfg := baseConfig(10_000)
		cfg.Settle = settle
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bs := run(t, a, stableSource(7, 300_000), 300_000)
		gap := max(settle, 1) + 1
		last, closest := -10, len(bs)
		for i, b := range bs {
			if b.Adapted != Kept {
				if i-last < gap {
					t.Fatalf("adaptations at boundaries %d and %d despite settle %d", last, i, settle)
				}
				closest = min(closest, i-last)
				last = i
			}
		}
		if closest != gap {
			t.Fatalf("settle %d: closest adaptations %d boundaries apart, want %d", settle, closest, gap)
		}
	}
}

// TestStreak pins the consecutive-run counting every controller judgment
// reads.
func TestStreak(t *testing.T) {
	type obs struct{ high, low bool }
	for _, tc := range []struct {
		name   string
		seq    []obs
		hi, lo int
	}{
		{"empty", nil, 0, 0},
		{"highs count", []obs{{true, false}, {true, false}, {true, false}}, 3, 0},
		{"lows count", []obs{{false, true}, {false, true}}, 0, 2},
		{"low breaks high", []obs{{true, false}, {true, false}, {false, true}}, 0, 1},
		{"high breaks low", []obs{{false, true}, {false, true}, {true, false}}, 1, 0},
		{"neither breaks both", []obs{{true, false}, {true, false}, {false, false}}, 0, 0},
		{"run restarts after a break", []obs{{false, true}, {false, false}, {false, true}}, 0, 1},
		{"high wins a tie", []obs{{false, true}, {true, true}}, 1, 0},
	} {
		var s streak
		for _, o := range tc.seq {
			s.observe(o.high, o.low)
		}
		if s.hi != tc.hi || s.lo != tc.lo {
			t.Errorf("%s: streak = {hi %d, lo %d}, want {hi %d, lo %d}", tc.name, s.hi, s.lo, tc.hi, tc.lo)
		}
	}
}

func TestOnRealAnalog(t *testing.T) {
	// m88ksim's analog alternates phases every 5K events, so intervals
	// well above the dwell average over all phases and are stable — the
	// paper's own observation that m88ksim is accurately captured at 1M
	// but varies at 10K. The controller should therefore *grow*.
	g, err := synth.NewBenchmark("m88ksim", event.KindValue, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(40_000)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(t, a, g, 800_000)
	if a.IntervalLength() <= 40_000 {
		t.Fatalf("no growth on phase-averaging analog: %d", a.IntervalLength())
	}
}

func TestVariationPct(t *testing.T) {
	a := map[event.Tuple]bool{{A: 1}: true, {A: 2}: true}
	b := map[event.Tuple]bool{{A: 1}: true, {A: 2}: true}
	if v := VariationPct(a, b); v != 0 {
		t.Fatalf("identical sets vary %v", v)
	}
	c := map[event.Tuple]bool{{A: 3}: true}
	if v := VariationPct(a, c); v != 100 {
		t.Fatalf("disjoint sets vary %v", v)
	}
	d := map[event.Tuple]bool{{A: 1}: true}
	// union 2, symdiff 1 → 50%.
	if v := VariationPct(a, d); v != 50 {
		t.Fatalf("half-overlap sets vary %v", v)
	}
	if v := VariationPct(nil, nil); v != 0 {
		t.Fatalf("empty sets vary %v", v)
	}
}
