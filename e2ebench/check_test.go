package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"hwprof"
)

// smallWorkload is remote-short's geometry over a stream short enough for
// a unit test.
func smallWorkload(t *testing.T) (Params, []hwprof.Tuple) {
	t.Helper()
	p, err := workloadByName("remote-short")
	if err != nil {
		t.Fatal(err)
	}
	p.StreamEvents = 20 * p.L()
	stream, err := generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	return p, stream
}

// delivered profiles the stream locally the way the benchmark's library
// path does, keeping every interval profile.
func delivered(t *testing.T, p Params, stream []hwprof.Tuple, events int) []map[hwprof.Tuple]uint64 {
	t.Helper()
	var out []map[hwprof.Tuple]uint64
	_, err := hwprof.Profile(context.Background(), &cyclic{stream: stream, limit: events},
		hwprof.WithConfig(p.Config), hwprof.WithShards(p.Shards), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, h map[hwprof.Tuple]uint64) { out = append(out, h) }))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestReferenceCheckPassesFaithfulDeliveries(t *testing.T) {
	p, stream := smallWorkload(t)
	events := 3 * len(stream) / 2 // wraps the cyclic stream
	ref, err := reference(p, stream, events)
	if err != nil {
		t.Fatal(err)
	}
	got, present := digests(delivered(t, p, stream, events))
	missing, err := compare(p.Name, "interval", got, present, ref)
	if err != nil || missing != 0 {
		t.Fatalf("faithful deliveries: missing %d, err %v", missing, err)
	}
}

// TestTamperedProfileFailsCheck is the check's negative self-test: one
// changed count in one delivered profile must be reported as a
// divergence naming the workload, the interval and both digests.
func TestTamperedProfileFailsCheck(t *testing.T) {
	p, stream := smallWorkload(t)
	events := len(stream)
	ref, err := reference(p, stream, events)
	if err != nil {
		t.Fatal(err)
	}
	profiles := delivered(t, p, stream, events)
	if !tamper(profiles) {
		t.Fatal("nothing to tamper with")
	}
	got, present := digests(profiles)
	_, err = compare(p.Name, "interval", got, present, ref)
	var div *divergence
	if !errors.As(err, &div) {
		t.Fatalf("tampered profile passed the check (err %v)", err)
	}
	if div.got == div.want || div.index != len(profiles)/2 {
		t.Fatalf("divergence %+v, want interval %d with differing digests", div, len(profiles)/2)
	}
	for _, want := range []string{p.Name, "interval 10", "delivered digest", "reference digest"} {
		if !strings.Contains(div.Error(), want) {
			t.Errorf("divergence message %q lacks %q", div.Error(), want)
		}
	}
}

func TestMissingDeliveriesAreFailuresNotDivergences(t *testing.T) {
	p, stream := smallWorkload(t)
	ref, err := reference(p, stream, len(stream))
	if err != nil {
		t.Fatal(err)
	}
	profiles := delivered(t, p, stream, len(stream))
	profiles[3] = nil
	got, present := digests(profiles[:len(profiles)-2])
	missing, err := compare(p.Name, "epoch", got, present, ref)
	if err != nil || missing != 3 {
		t.Fatalf("missing %d, err %v; want 3 missing and no divergence", missing, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestZeroMedianFiguresCompareAbsolute covers the accuracy figures, which
// are 0 on some workloads: their spread is 0 and a change from them is
// absolute, never a share of 0.
func TestZeroMedianFiguresCompareAbsolute(t *testing.T) {
	if sp := spread([]float64{0, 0, 0}); sp != 0 {
		t.Errorf("spread of zeros = %v, want 0", sp)
	}
	got := judge([]float64{0, 0, 0}, []float64{0.5, 0.5, 0.5}, 0, false)
	if !strings.Contains(got, "+0.5 absolute") || strings.Contains(got, "NaN") || strings.Contains(got, "Inf") {
		t.Errorf("change from a zero median = %q, want +0.5 absolute", got)
	}
}

func TestEachPieceSplitsAtIntervalBoundaries(t *testing.T) {
	type piece struct {
		n, iv int
		ends  bool
	}
	var got []piece
	// Events 8..15 with 5-event intervals.
	eachPiece(make([]hwprof.Tuple, 8), 8, 5, func(p []hwprof.Tuple, iv int, ends bool) error {
		got = append(got, piece{len(p), iv, ends})
		return nil
	})
	want := []piece{{2, 1, true}, {5, 2, true}, {1, 3, false}}
	if len(got) != len(want) {
		t.Fatalf("pieces %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pieces %v, want %v", got, want)
		}
	}
}
