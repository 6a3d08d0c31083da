package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// family is a set of metrics of one kind M distinguished by one label —
// e.g. one reconnect counter per aggregator child. Children are created on
// first use and render as `name{label="value"} n` lines, sorted by label
// value.
type family[M any, P child[M]] struct {
	mu    sync.Mutex
	label string
	kids  map[string]*M
}

// child is the kind of metric a family holds: one atomic word that
// renders as an integer.
type child[M any] interface {
	*M
	text() string
}

// CounterVec is a family of counters distinguished by one label.
type CounterVec = family[Counter, *Counter]

// GaugeVec is a family of gauges distinguished by one label.
type GaugeVec = family[Gauge, *Gauge]

func (c *Counter) text() string { return strconv.FormatUint(c.Load(), 10) }

func (g *Gauge) text() string { return strconv.FormatInt(g.Load(), 10) }

// With returns the child for the given label value, creating it on first
// use. The returned child is safe to retain and update lock-free.
func (v *family[M, P]) With(value string) *M {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.kids[value]
	if c == nil {
		c = new(M)
		v.kids[value] = c
	}
	return c
}

// write renders one line per child, sorted by label value.
func (v *family[M, P]) write(w io.Writer, name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s{%s=%s} %s\n", name, v.label, quoteLabel(k), P(v.kids[k]).text()); err != nil {
			return err
		}
	}
	return nil
}

// CounterVec registers and returns a counter family keyed by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, kids: make(map[string]*Counter)}
	r.register(metric{name: name, help: help, typ: "counter", vec: v})
	return v
}

// GaugeVec registers and returns a gauge family keyed by label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{label: label, kids: make(map[string]*Gauge)}
	r.register(metric{name: name, help: help, typ: "gauge", vec: v})
	return v
}

// quoteLabel escapes a label value for the Prometheus text format; Go's
// quoting escapes the same characters (backslash, quote, newline).
func quoteLabel(s string) string { return strconv.Quote(s) }
