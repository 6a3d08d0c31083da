package expt

import (
	"fmt"
	"sort"

	"hwprof/internal/adaptive"
	"hwprof/internal/event"
)

// fig4Lengths are the interval lengths of Figure 4.
var fig4Lengths = []uint64{10_000, 100_000, 1_000_000}

// intervalsForLength scales the interval budget by regime so the 100K and
// 1M sweeps stay affordable.
func (o Options) intervalsForLength(length uint64) int {
	switch {
	case length >= 1_000_000:
		return o.LongIntervals
	case length >= 100_000:
		n := o.ShortIntervals / 10
		if n < 3 {
			n = 3
		}
		return n
	default:
		return o.ShortIntervals
	}
}

// Fig4 reproduces Figure 4: the average number of distinct tuples seen per
// interval, per benchmark, for 10K/100K/1M-event intervals (value tuples,
// perfect observation).
func Fig4(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		Title:  "Figure 4: average distinct tuples per interval (value profiling)",
		Header: []string{"benchmark", "10K", "100K", "1M"},
	}
	for _, bench := range opts.Benchmarks {
		row := []string{bench}
		for _, length := range fig4Lengths {
			n := opts.intervalsForLength(length)
			profiles, err := perfectIntervals(bench, event.KindValue, length, n, opts.Seed)
			if err != nil {
				return Table{}, err
			}
			total := 0
			for _, p := range profiles {
				total += len(p)
			}
			row = append(row, fmt.Sprintf("%d", total/len(profiles)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig5 reproduces Figure 5: the average number of unique candidate tuples
// per interval at the 1% and 0.1% thresholds, for each interval length.
func Fig5(opts Options) (Table, Table, error) {
	opts = opts.withDefaults()
	mk := func(percent float64) Table {
		return Table{
			Title:  fmt.Sprintf("Figure 5: average candidate tuples per interval, threshold %g%%", percent),
			Header: []string{"benchmark", "10K", "100K", "1M"},
		}
	}
	t1, t01 := mk(1), mk(0.1)
	for _, bench := range opts.Benchmarks {
		row1 := []string{bench}
		row01 := []string{bench}
		for _, length := range fig4Lengths {
			n := opts.intervalsForLength(length)
			profiles, err := perfectIntervals(bench, event.KindValue, length, n, opts.Seed)
			if err != nil {
				return Table{}, Table{}, err
			}
			c1, c01 := 0, 0
			for _, p := range profiles {
				c1 += len(candidateSet(p, thresholdFor(length, 1)))
				c01 += len(candidateSet(p, thresholdFor(length, 0.1)))
			}
			row1 = append(row1, fmt.Sprintf("%d", c1/len(profiles)))
			row01 = append(row01, fmt.Sprintf("%d", c01/len(profiles)))
		}
		t1.AddRow(row1...)
		t01.AddRow(row01...)
	}
	return t1, t01, nil
}

// Fig6 reproduces Figure 6: the distribution of candidate-set variation
// between consecutive intervals. For each benchmark the returned Series
// holds the sorted per-boundary variation percentages — i.e. the y-values
// of the paper's CDF, where point i of k means "i/k of interval boundaries
// changed by at most y%". The top figure's regime is 10K/1%, the bottom's
// 1M/0.1%.
func Fig6(opts Options) (short, long []Series, err error) {
	opts = opts.withDefaults()
	regime := func(length uint64, percent float64, intervals int) ([]Series, error) {
		var out []Series
		thresh := thresholdFor(length, percent)
		for _, bench := range opts.Benchmarks {
			profiles, err := perfectIntervals(bench, event.KindValue, length, intervals, opts.Seed)
			if err != nil {
				return nil, err
			}
			var variations []float64
			prev := candidateSet(profiles[0], thresh)
			for _, p := range profiles[1:] {
				next := candidateSet(p, thresh)
				variations = append(variations, adaptive.VariationPct(prev, next))
				prev = next
			}
			sort.Float64s(variations)
			out = append(out, Series{Name: bench, Points: variations})
		}
		return out, nil
	}
	short, err = regime(10_000, 1, opts.ShortIntervals)
	if err != nil {
		return nil, nil, err
	}
	// The 1M CDF needs more than a handful of boundaries to mean anything.
	longN := opts.LongIntervals
	if longN < 8 {
		longN = 8
	}
	long, err = regime(1_000_000, 0.1, longN)
	if err != nil {
		return nil, nil, err
	}
	return short, long, nil
}

// SeriesSummary condenses CDF series into a table of quartiles for text
// rendering.
func SeriesSummary(title string, series []Series) Table {
	t := Table{
		Title:  title,
		Header: []string{"benchmark", "p25", "p50", "p75", "max"},
	}
	q := func(pts []float64, f float64) float64 {
		if len(pts) == 0 {
			return 0
		}
		i := int(f * float64(len(pts)-1))
		return pts[i]
	}
	for _, s := range series {
		t.AddRow(s.Name,
			fmt.Sprintf("%.1f", q(s.Points, 0.25)),
			fmt.Sprintf("%.1f", q(s.Points, 0.50)),
			fmt.Sprintf("%.1f", q(s.Points, 0.75)),
			fmt.Sprintf("%.1f", q(s.Points, 1.0)))
	}
	return t
}
