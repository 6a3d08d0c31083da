package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.Raise(5)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge after Raise(5) = %d, want 7", got)
	}
	g.Raise(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("gauge after Raise(9) = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %g, want 556.5", h.Sum())
	}
	// An observation exactly on a bound lands in that bound's bucket
	// (le is an upper inclusive bound): cumulative counts are 2, 3, 4, 5.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestRegistryRendersPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events seen.")
	g := r.Gauge("test_depth", "Queue depth.")
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1})
	c.Add(3)
	g.Set(-2)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_events_total Events seen.",
		"# TYPE test_events_total counter",
		"test_events_total 3",
		"# TYPE test_depth gauge",
		"test_depth -2",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.055",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "Test.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1\n") {
		t.Fatalf("body: %s", rec.Body.String())
	}
}

func TestRegistryPanicsOnDuplicate(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "second")
}

// TestConcurrentUpdatesAndRender exercises writers racing the renderer;
// run under -race this is the package's thread-safety proof, and the totals
// must still be exact (no lost updates).
func TestConcurrentUpdatesAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "racing counter")
	h := r.Histogram("race_hist", "racing histogram", []float64{1, 2})
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(1.5)
				if i%100 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}()
	}
	wg.Wait()
	if c.Load() != workers*each {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*each)
	}
	if h.Count() != workers*each {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*each)
	}
	if h.Sum() != workers*each*1.5 {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), float64(workers*each)*1.5)
	}
}
