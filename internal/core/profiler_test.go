package core

import (
	"reflect"
	"testing"

	"hwprof/internal/event"
	"hwprof/internal/metrics"
	"hwprof/internal/xrand"
)

// stream builds a deterministic interleaving of hot tuples (each occurring
// hotCount times) and cold noise tuples (each occurring once), shuffled.
func stream(seed uint64, hot int, hotCount int, noise int) []event.Tuple {
	var out []event.Tuple
	for i := 0; i < hot; i++ {
		tp := event.Tuple{A: uint64(i + 1), B: 0xbeef}
		for j := 0; j < hotCount; j++ {
			out = append(out, tp)
		}
	}
	for i := 0; i < noise; i++ {
		out = append(out, event.Tuple{A: 0x1000000 + uint64(i), B: uint64(i)})
	}
	r := xrand.New(seed)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newMH(t *testing.T, cfg Config) *MultiHash {
	t.Helper()
	m, err := NewMultiHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMultiHashRejectsInvalid(t *testing.T) {
	if _, err := NewMultiHash(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestSingleHashCapturesCleanHeavyHitter(t *testing.T) {
	cfg := validConfig()
	cfg.NumTables = 1
	m := newMH(t, cfg)
	hot := event.Tuple{A: 42, B: 7}
	// 500 occurrences in a 10,000-event interval, threshold 100.
	in := stream(1, 0, 0, 9500)
	for i := 0; i < 500; i++ {
		in = append(in, hot)
	}
	r := xrand.New(2)
	r.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	for _, tp := range in {
		m.Observe(tp)
	}
	snap := m.EndInterval()
	fh, ok := snap[hot]
	if !ok {
		t.Fatal("heavy hitter not captured")
	}
	// Shielded exact counting after promotion: fh is between 500 (exact)
	// and 500 plus aliasing inflation at promotion time. It must be at
	// least the threshold and at most total events.
	if fh < 100 || fh > 10000 {
		t.Fatalf("captured count %d implausible", fh)
	}
}

func TestColdTuplesNotCaptured(t *testing.T) {
	cfg := validConfig()
	cfg.NumTables = 4
	cfg.ConservativeUpdate = true
	m := newMH(t, cfg)
	for _, tp := range stream(3, 5, 200, 9000) {
		m.Observe(tp)
	}
	snap := m.EndInterval()
	// All five hot tuples captured, no noise tuple above threshold.
	hotFound := 0
	for tp, c := range snap {
		if tp.B == 0xbeef {
			hotFound++
			continue
		}
		if c >= 100 {
			t.Fatalf("noise tuple %v reported with count %d", tp, c)
		}
	}
	if hotFound != 5 {
		t.Fatalf("captured %d of 5 hot tuples", hotFound)
	}
}

func TestShieldingStopsHashUpdates(t *testing.T) {
	cfg := validConfig()
	cfg.NumTables = 1
	m := newMH(t, cfg)
	hot := event.Tuple{A: 1, B: 1}
	for i := 0; i < 100; i++ {
		m.Observe(hot) // promoted at the 100th observation
	}
	idx := m.fam.Indexes(hot, nil)[0]
	after := m.set.Get(0, idx)
	for i := 0; i < 50; i++ {
		m.Observe(hot)
	}
	if got := m.set.Get(0, idx); got != after {
		t.Fatalf("hash counter moved from %d to %d while tuple was shielded", after, got)
	}
	if c, _ := m.acc.Count(hot); c != 150 {
		t.Fatalf("accumulator count = %d, want 150", c)
	}
}

func TestNoShieldKeepsUpdatingHash(t *testing.T) {
	cfg := validConfig()
	cfg.NumTables = 1
	cfg.NoShield = true
	cfg.ResetOnPromote = false
	m := newMH(t, cfg)
	hot := event.Tuple{A: 1, B: 1}
	for i := 0; i < 150; i++ {
		m.Observe(hot)
	}
	idx := m.fam.Indexes(hot, nil)[0]
	if got := m.set.Get(0, idx); got != 150 {
		t.Fatalf("unshielded hash counter = %d, want 150", got)
	}
	if c, _ := m.acc.Count(hot); c != 150 {
		t.Fatalf("accumulator count = %d, want 150", c)
	}
}

func TestResetOnPromoteZeroesCounters(t *testing.T) {
	cfg := validConfig()
	cfg.NumTables = 4
	cfg.ResetOnPromote = true
	m := newMH(t, cfg)
	hot := event.Tuple{A: 5, B: 5}
	for i := 0; i < 100; i++ {
		m.Observe(hot)
	}
	for i, idx := range m.fam.Indexes(hot, nil) {
		if got := m.set.Get(i, idx); got != 0 {
			t.Fatalf("table %d counter = %d after promote with R1", i, got)
		}
	}
}

func TestNoResetLeavesCounters(t *testing.T) {
	cfg := validConfig()
	cfg.NumTables = 1
	cfg.ResetOnPromote = false
	m := newMH(t, cfg)
	hot := event.Tuple{A: 5, B: 5}
	for i := 0; i < 100; i++ {
		m.Observe(hot)
	}
	idx := m.fam.Indexes(hot, nil)[0]
	if got := m.set.Get(0, idx); got != 100 {
		t.Fatalf("R0 counter = %d, want 100", got)
	}
}

func TestEndIntervalFlushesHashTables(t *testing.T) {
	cfg := validConfig()
	m := newMH(t, cfg)
	for _, tp := range stream(7, 3, 150, 5000) {
		m.Observe(tp)
	}
	m.EndInterval()
	for ti := 0; ti < m.set.Tables(); ti++ {
		for i := 0; i < m.set.Size(); i++ {
			if m.set.Get(ti, uint32(i)) != 0 {
				t.Fatalf("table %d entry %d nonzero after EndInterval", ti, i)
			}
		}
	}
	if m.EventsThisInterval() != 0 {
		t.Fatal("event counter not reset")
	}
}

func TestRetainAcrossIntervals(t *testing.T) {
	cfg := validConfig()
	cfg.Retain = true
	cfg.NumTables = 1
	m := newMH(t, cfg)
	hot := event.Tuple{A: 9, B: 9}
	for i := 0; i < 200; i++ {
		m.Observe(hot)
	}
	m.EndInterval()
	// Next interval: the retained entry counts from its first occurrence,
	// with no hash-table warm-up needed.
	for i := 0; i < 150; i++ {
		m.Observe(hot)
	}
	snap := m.EndInterval()
	if got := snap[hot]; got != 150 {
		t.Fatalf("retained tuple second-interval count = %d, want exactly 150", got)
	}
	idx := m.fam.Indexes(hot, nil)[0]
	if got := m.set.Get(0, idx); got != 0 {
		t.Fatalf("retained tuple leaked %d hash increments", got)
	}
}

// TestRetainedTupleReportedAtZero pins the P1 boundary encoding that
// journals and HWSR digests depend on: a tuple retained at a boundary that
// does not recur is reported by the next profile at count 0, and dropped
// at the boundary after that.
func TestRetainedTupleReportedAtZero(t *testing.T) {
	cfg := BestMultiHash(ShortIntervalConfig())
	cfg.Seed = 5
	m := newMH(t, cfg)
	x, y := event.Tuple{A: 1, B: 1}, event.Tuple{A: 2, B: 2}
	for i := 0; i < 500; i++ {
		m.Observe(x)
	}
	for i, want := range []map[event.Tuple]uint64{{x: 500}, {x: 0}, {}} {
		if i == 1 {
			m.Observe(y) // once: far below the threshold
		}
		if got := m.EndInterval(); !reflect.DeepEqual(got, want) {
			t.Fatalf("profile %d = %v, want %v", i, got, want)
		}
	}
}

func TestNoRetainRequiresRewarm(t *testing.T) {
	cfg := validConfig()
	cfg.Retain = false
	cfg.NumTables = 1
	m := newMH(t, cfg)
	hot := event.Tuple{A: 9, B: 9}
	for i := 0; i < 200; i++ {
		m.Observe(hot)
	}
	m.EndInterval()
	for i := 0; i < 150; i++ {
		m.Observe(hot)
	}
	// The count itself is preserved — promotion transfers the hash counter
	// value — but the tuple had to re-warm through the hash table, putting
	// 100 increments of pressure on it (versus 0 when retained). That
	// pressure is what retaining removes (§5.4.1).
	idx := m.fam.Indexes(hot, nil)[0]
	if got := m.set.Get(0, idx); got != 100 {
		t.Fatalf("unretained tuple exerted %d hash increments, want 100", got)
	}
	snap := m.EndInterval()
	if got := snap[hot]; got != 150 {
		t.Fatalf("unretained tuple count = %d, want 150", got)
	}
}

// TestConservativeUpdateOverestimateInvariant checks the count-min-with-
// conservative-update invariant the paper's C1 relies on: with no
// promotion, no reset and no shielding interference, every tuple's minimum
// counter is >= its true count.
func TestConservativeUpdateOverestimateInvariant(t *testing.T) {
	cfg := validConfig()
	cfg.NumTables = 4
	cfg.ConservativeUpdate = true
	cfg.ThresholdPercent = 100 // threshold 10000: nothing promotes
	cfg.AccumCapacity = 1
	m := newMH(t, cfg)

	truth := map[event.Tuple]uint64{}
	r := xrand.New(31)
	for i := 0; i < 10000; i++ {
		tp := event.Tuple{A: r.Uint64n(300), B: r.Uint64n(4)}
		truth[tp]++
		m.Observe(tp)
	}
	for tp, want := range truth {
		min := ^uint64(0)
		for i, idx := range m.fam.Indexes(tp, nil) {
			if v := m.set.Get(i, idx); v < min {
				min = v
			}
		}
		if min < want {
			t.Fatalf("tuple %v min counter %d < true count %d", tp, min, want)
		}
	}
}

// TestConservativeUpdateTightens checks that C1 produces estimates no worse
// than C0 for every tuple (same hash functions, same stream).
func TestConservativeUpdateTightens(t *testing.T) {
	mk := func(cu bool) *MultiHash {
		cfg := validConfig()
		cfg.NumTables = 4
		cfg.ConservativeUpdate = cu
		cfg.ThresholdPercent = 100
		cfg.AccumCapacity = 1
		cfg.Seed = 77
		return newMH(t, cfg)
	}
	c0, c1 := mk(false), mk(true)
	r := xrand.New(13)
	var tuples []event.Tuple
	for i := 0; i < 8000; i++ {
		tp := event.Tuple{A: r.Uint64n(500), B: 1}
		tuples = append(tuples, tp)
		c0.Observe(tp)
		c1.Observe(tp)
	}
	est := func(m *MultiHash, tp event.Tuple) uint64 {
		min := ^uint64(0)
		for i, idx := range m.fam.Indexes(tp, nil) {
			if v := m.set.Get(i, idx); v < min {
				min = v
			}
		}
		return min
	}
	for _, tp := range tuples[:500] {
		if est(c1, tp) > est(c0, tp) {
			t.Fatalf("conservative update worsened estimate for %v: %d > %d",
				tp, est(c1, tp), est(c0, tp))
		}
	}
}

// TestMultiHashReducesFalsePositives is the paper's headline claim in
// miniature: on a noisy stream, 4 hash tables with the same total entry
// budget produce no more false-positive error than 1 table, and strictly
// less when the single table is suffering aliasing.
func TestMultiHashReducesFalsePositives(t *testing.T) {
	run := func(tables int) metrics.Interval {
		cfg := validConfig()
		cfg.TotalEntries = 512 // small table to force aliasing
		cfg.NumTables = tables
		cfg.ConservativeUpdate = tables > 1
		cfg.Retain = true
		cfg.Seed = 5
		m := newMH(t, cfg)
		src := event.NewSliceSource(stream(99, 10, 150, 8500))
		var sum metrics.Summary
		_, err := Run(src, m, cfg.IntervalLength, func(_ int, p, h map[event.Tuple]uint64) {
			sum.Add(metrics.EvalInterval(p, h, cfg.ThresholdCount()))
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum.Mean()
	}
	single := run(1)
	multi := run(4)
	if multi.FalsePos > single.FalsePos {
		t.Fatalf("4-table FP error %v exceeds single-table %v", multi.FalsePos, single.FalsePos)
	}
	if multi.Total > single.Total {
		t.Fatalf("4-table total error %v exceeds single-table %v", multi.Total, single.Total)
	}
}

func TestPerfectProfiler(t *testing.T) {
	p := NewPerfect()
	p.Observe(event.Tuple{A: 1})
	p.Observe(event.Tuple{A: 1})
	p.Observe(event.Tuple{A: 2})
	if p.Distinct() != 2 {
		t.Fatalf("Distinct = %d", p.Distinct())
	}
	snap := p.EndInterval()
	if snap[event.Tuple{A: 1}] != 2 || snap[event.Tuple{A: 2}] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if p.Distinct() != 0 {
		t.Fatal("interval state leaked")
	}
	snap2 := p.EndInterval()
	if len(snap2) != 0 {
		t.Fatal("second snapshot not empty")
	}
}

func TestRunIntervalAccounting(t *testing.T) {
	cfg := validConfig()
	cfg.IntervalLength = 100
	m := newMH(t, cfg)
	// 250 events → 2 full intervals, 50 dropped.
	in := make([]event.Tuple, 250)
	for i := range in {
		in[i] = event.Tuple{A: uint64(i % 10)}
	}
	var seen []int
	n, err := Run(event.NewSliceSource(in), m, cfg.IntervalLength, func(i int, p, h map[event.Tuple]uint64) {
		seen = append(seen, i)
		var total uint64
		for _, c := range p {
			total += c
		}
		if total != 100 {
			t.Fatalf("interval %d has %d perfect events", i, total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("intervals = %d, seen = %v", n, seen)
	}
}

func TestRunRejectsZeroInterval(t *testing.T) {
	m := newMH(t, validConfig())
	if _, err := Run(event.NewSliceSource(nil), m, 0, nil); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestRunNilCallback(t *testing.T) {
	cfg := validConfig()
	cfg.IntervalLength = 10
	m := newMH(t, cfg)
	in := make([]event.Tuple, 25)
	n, err := Run(event.NewSliceSource(in), m, cfg.IntervalLength, nil)
	if err != nil || n != 2 {
		t.Fatalf("Run = %d, %v", n, err)
	}
}

func TestCandidatesMidInterval(t *testing.T) {
	cfg := validConfig()
	m := newMH(t, cfg)
	hot := event.Tuple{A: 3, B: 3}
	for i := 0; i < 120; i++ {
		m.Observe(hot)
	}
	cands := m.Candidates()
	if len(cands) != 1 || cands[0] != hot {
		t.Fatalf("Candidates = %v", cands)
	}
	if m.AccumLen() != 1 {
		t.Fatalf("AccumLen = %d", m.AccumLen())
	}
}

func TestAccumulatorFullDropsPromotions(t *testing.T) {
	cfg := validConfig()
	cfg.AccumCapacity = 2
	cfg.NumTables = 1
	m := newMH(t, cfg)
	// Three tuples each cross the threshold; only two fit.
	for id := uint64(1); id <= 3; id++ {
		for i := 0; i < 100; i++ {
			m.Observe(event.Tuple{A: id})
		}
	}
	if m.AccumLen() != 2 {
		t.Fatalf("AccumLen = %d, want 2", m.AccumLen())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() map[event.Tuple]uint64 {
		cfg := validConfig()
		cfg.NumTables = 4
		cfg.ConservativeUpdate = true
		m := newMH(t, cfg)
		for _, tp := range stream(123, 8, 140, 8000) {
			m.Observe(tp)
		}
		return m.EndInterval()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("runs disagree: %d vs %d entries", len(a), len(b))
	}
	for tp, c := range a {
		if b[tp] != c {
			t.Fatalf("runs disagree on %v: %d vs %d", tp, c, b[tp])
		}
	}
}
