// Package telemetry provides the cheap instrumentation primitives of the
// serving subsystem: lock-free counters, gauges and fixed-bucket histograms
// collected in a registry that renders itself in Prometheus text format
// over HTTP.
//
// The primitives are single atomic words (the histogram, one word per
// bucket), so the hot paths of the daemon — once per batch or per interval,
// never per event — pay a handful of uncontended atomic adds. Rendering
// walks the registry under a read lock and never blocks writers.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Raise lifts the gauge to n when it reads less; of concurrent raises the
// largest wins.
func (g *Gauge) Raise(n int64) {
	for cur := g.v.Load(); cur < n && !g.v.CompareAndSwap(cur, n); cur = g.v.Load() {
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (cumulative on render,
// per-bucket internally) and tracks their sum and count. Bounds are upper
// bounds in ascending order; observations beyond the last bound land in the
// implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is one registered metric with its metadata. Exactly one of the
// value fields is set; a family renders one line per label value.
type metric struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	c    *Counter
	g    *Gauge
	h    *Histogram
	vec  interface {
		write(w io.Writer, name string) error
	}
}

// Registry holds named metrics and renders them. Registration is expected
// at startup; rendering may happen concurrently with metric updates.
type Registry struct {
	mu      sync.RWMutex
	metrics []metric
	byName  map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// register adds m, panicking on a duplicate name — duplicate registration
// is a programming error, caught first run.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	r.byName[m.name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, help: help, typ: "counter", c: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(metric{name: name, help: help, typ: "gauge", g: g})
	return g
}

// Histogram registers and returns a new histogram with the given bucket
// upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(metric{name: name, help: help, typ: "histogram", h: h})
	return h
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ); err != nil {
			return err
		}
		switch {
		case m.c != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.c.Load()); err != nil {
				return err
			}
		case m.g != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.g.Load()); err != nil {
				return err
			}
		case m.h != nil:
			if err := writeHistogram(w, m.name, m.h); err != nil {
				return err
			}
		case m.vec != nil:
			if err := m.vec.write(w, m.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram: cumulative buckets, sum, count.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
			name, strconv.FormatFloat(b, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name,
		strconv.FormatFloat(h.Sum(), 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
