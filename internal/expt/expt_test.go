package expt

import (
	"reflect"
	"strings"
	"testing"

	"hwprof/internal/core"
	"hwprof/internal/event"
)

// cheapOpts keeps unit tests fast: one cheap benchmark, few intervals.
func cheapOpts() Options {
	return Options{
		Seed:           1,
		ShortIntervals: 3,
		LongIntervals:  1,
		Benchmarks:     []string{"li"},
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ShortIntervals != 50 || o.LongIntervals != 5 {
		t.Fatalf("defaults = %+v", o)
	}
	if len(o.Benchmarks) != 8 {
		t.Fatalf("default benchmarks = %v", o.Benchmarks)
	}
	if o.intervalsFor(core.ShortIntervalConfig()) != 50 {
		t.Fatal("short regime interval budget wrong")
	}
	if o.intervalsFor(core.LongIntervalConfig()) != 5 {
		t.Fatal("long regime interval budget wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("xxx", "1")
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "xxx", "1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table %q missing %q", s, want)
		}
	}
}

func TestSeriesString(t *testing.T) {
	s := Series{Name: "x", Points: []float64{1, 2.5}}
	if got := s.String(); !strings.Contains(got, "x:") || !strings.Contains(got, "2.50") {
		t.Fatalf("Series.String() = %q", got)
	}
}

func TestFig4Structure(t *testing.T) {
	tab, err := Fig4(cheapOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != 4 {
		t.Fatalf("Fig4 shape: %+v", tab.Rows)
	}
	if tab.Rows[0][0] != "li" {
		t.Fatalf("Fig4 benchmark column: %v", tab.Rows[0])
	}
}

func TestFig5CandidatesExist(t *testing.T) {
	t1, t01, err := Fig5(cheapOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 1 || len(t01.Rows) != 1 {
		t.Fatal("Fig5 row counts wrong")
	}
	if t1.Rows[0][1] == "0" {
		t.Fatalf("no 1%% candidates for li at 10K: %v", t1.Rows[0])
	}
}

func TestFig6SeriesShape(t *testing.T) {
	short, long, err := Fig6(cheapOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != 1 || len(long) != 1 {
		t.Fatal("Fig6 series counts wrong")
	}
	// 3 intervals → 2 boundaries; long forced to ≥ 8 intervals → ≥ 7.
	if len(short[0].Points) != 2 {
		t.Fatalf("short series has %d points", len(short[0].Points))
	}
	if len(long[0].Points) < 7 {
		t.Fatalf("long series has %d points", len(long[0].Points))
	}
	for _, p := range append(short[0].Points, long[0].Points...) {
		if p < 0 || p > 100 {
			t.Fatalf("variation %v outside [0,100]", p)
		}
	}
	// Sorted ascending (CDF form).
	for i := 1; i < len(long[0].Points); i++ {
		if long[0].Points[i] < long[0].Points[i-1] {
			t.Fatal("Fig6 series not sorted")
		}
	}
	sum := SeriesSummary("s", short)
	if len(sum.Rows) != 1 {
		t.Fatal("SeriesSummary row count")
	}
}

func TestFig7ShortStructure(t *testing.T) {
	opts := cheapOpts()
	opts.LongIntervals = 1
	short, long, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Rows) != 4 || len(long.Rows) != 4 {
		t.Fatalf("Fig7 rows: %d, %d", len(short.Rows), len(long.Rows))
	}
	for _, row := range short.Rows {
		if row[0] != "li" {
			t.Fatalf("unexpected benchmark %q", row[0])
		}
	}
}

func TestFig9MatchesAnalyticShape(t *testing.T) {
	tab, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 || len(tab.Header) != 6 {
		t.Fatalf("Fig9 shape: %d rows, %d cols", len(tab.Rows), len(tab.Header))
	}
}

func TestFig10UsesGccGoByDefault(t *testing.T) {
	opts := Options{Seed: 1, ShortIntervals: 2, LongIntervals: 1}
	tab, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks × 4 table counts × 4 configs.
	if len(tab.Rows) != 32 {
		t.Fatalf("Fig10 rows: %d", len(tab.Rows))
	}
	seen := map[string]bool{}
	for _, r := range tab.Rows {
		seen[r[0]] = true
	}
	if !seen["gcc"] || !seen["go"] || len(seen) != 2 {
		t.Fatalf("Fig10 benchmarks: %v", seen)
	}
}

func TestFig12Structure(t *testing.T) {
	opts := cheapOpts()
	short, long, err := Fig12(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 1 benchmark × (BSH + 5 table counts).
	if len(short.Rows) != 6 || len(long.Rows) != 6 {
		t.Fatalf("Fig12 rows: %d, %d", len(short.Rows), len(long.Rows))
	}
	if short.Rows[0][1] != "BSH" {
		t.Fatalf("first config = %q, want BSH", short.Rows[0][1])
	}
}

func TestFig13SeriesLengths(t *testing.T) {
	opts := cheapOpts()
	opts.LongIntervals = 2
	bsh, multi, err := Fig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(bsh) != 1 || len(multi) != 1 {
		t.Fatal("Fig13 series counts")
	}
	if len(bsh[0].Points) != 2 || len(multi[0].Points) != 2 {
		t.Fatalf("Fig13 points: %d, %d", len(bsh[0].Points), len(multi[0].Points))
	}
}

func TestFig14EdgeStructure(t *testing.T) {
	opts := cheapOpts()
	short, long, err := Fig14(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Rows) != 5 || len(long.Rows) != 5 {
		t.Fatalf("Fig14 rows: %d, %d", len(short.Rows), len(long.Rows))
	}
	if !strings.Contains(short.Title, "edge") {
		t.Fatalf("Fig14 title: %q", short.Title)
	}
}

func TestAreaTableMatchesPaper(t *testing.T) {
	tab, err := AreaTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("area rows: %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "6144" || tab.Rows[0][2] != "1000" {
		t.Fatalf("1%% config area: %v", tab.Rows[0])
	}
	if tab.Rows[1][2] != "10000" {
		t.Fatalf("0.1%% config area: %v", tab.Rows[1])
	}
}

func TestStratifiedCompareStructure(t *testing.T) {
	tab, err := StratifiedCompare(cheapOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("baseline rows: %d", len(tab.Rows))
	}
	labels := []string{"periodic", "random", "stratified", "multi-hash"}
	for i, want := range labels {
		if tab.Rows[i][1] != want {
			t.Fatalf("row %d = %q, want %q", i, tab.Rows[i][1], want)
		}
	}
	// Every software-assisted baseline must report nonzero messages; the
	// multi-hash profiler reports none by construction.
	for i := 0; i < 3; i++ {
		if tab.Rows[i][3] == "0" {
			t.Fatalf("%s sent no messages", labels[i])
		}
	}
	if tab.Rows[3][3] != "0" || tab.Rows[3][4] != "0" {
		t.Fatal("multi-hash claimed software traffic")
	}
}

// TestMultiHashBeatsSingleHashShape is the repository's headline shape
// assertion at test scale: on a noisy benchmark at the short regime, the
// best multi-hash profiler's error is no worse than the plain single-hash
// profiler's.
func TestMultiHashBeatsSingleHashShape(t *testing.T) {
	base := core.ShortIntervalConfig()
	single := base
	single.Retain = true
	single.Seed = 8
	multi := core.BestMultiHash(base)
	multi.Seed = 8
	sMean, _, err := runConfig("gcc", event.KindValue, single, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mMean, _, err := runConfig("gcc", event.KindValue, multi, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mMean.Total > sMean.Total {
		t.Fatalf("multi-hash error %v exceeds single-hash %v", mMean.Total, sMean.Total)
	}
}

func TestAdaptiveTableStructure(t *testing.T) {
	tab, err := AdaptiveTable(cheapOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "li" {
		t.Fatalf("AdaptiveTable rows: %v", tab.Rows)
	}
	if tab.Rows[0][5] == "0" {
		t.Fatal("no boundaries recorded")
	}
}

// TestAdaptiveTableRows pins the §5.6.1 table's rows, as committed in
// experiments_output.txt at the cmd/experiments defaults, for a
// phase-stable analog that grows and for the two phase-tracking analogs
// that lock onto their phase scale.
func TestAdaptiveTableRows(t *testing.T) {
	tab, err := AdaptiveTable(Options{Seed: 1, Benchmarks: []string{"gcc", "m88ksim", "vortex"}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		// benchmark, start, final, grows, shrinks, boundaries
		{"gcc", "10000", "640000", "6", "0", "17"},
		{"m88ksim", "10000", "2500", "49", "51", "1083"},
		{"vortex", "10000", "1250", "75", "78", "1221"},
	}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Fatalf("AdaptiveTable rows = %v, want %v", tab.Rows, want)
	}
}

func TestIntervalsForLength(t *testing.T) {
	o := Options{ShortIntervals: 40, LongIntervals: 4}.withDefaults()
	if o.intervalsForLength(10_000) != 40 {
		t.Fatal("10K budget wrong")
	}
	if o.intervalsForLength(100_000) != 4 {
		t.Fatal("100K budget wrong")
	}
	if o.intervalsForLength(1_000_000) != 4 {
		t.Fatal("1M budget wrong")
	}
	small := Options{ShortIntervals: 10, LongIntervals: 2}.withDefaults()
	if small.intervalsForLength(100_000) != 3 {
		t.Fatal("100K floor not applied")
	}
}

func TestThresholdFor(t *testing.T) {
	if thresholdFor(10_000, 1) != 100 {
		t.Fatal("10K/1% threshold wrong")
	}
	if thresholdFor(1_000_000, 0.1) != 1000 {
		t.Fatal("1M/0.1% threshold wrong")
	}
}

func TestVMTableStructure(t *testing.T) {
	opts := cheapOpts()
	opts.ShortIntervals = 2
	tab, err := VMTable(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 10 programs × 2 kinds.
	if len(tab.Rows) != 20 {
		t.Fatalf("VMTable rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == "0" {
			t.Fatalf("program %s ran no intervals", row[0])
		}
	}
}
