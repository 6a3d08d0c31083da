package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one interval share its index; Parent indexes the
// enclosing span in the same tracer (-1 for a root).
type span struct {
	Name     string `json:"name"`
	Interval int    `json:"interval"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory, relative to its creation; they are
// written out when the run ends. A tracer is used by one goroutine.
type tracer struct {
	phase string
	t0    time.Time
	spans []span
}

func newTracer(phase string) *tracer { return &tracer{phase: phase, t0: time.Now()} }

// add records a span and returns its index.
func (t *tracer) add(name string, interval, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		Name:     name,
		Interval: interval,
		Parent:   parent,
		Start:    int64(start.Sub(t.t0)),
		End:      int64(end.Sub(t.t0)),
	})
	return len(t.spans) - 1
}

// rootIntervals adds one root span per interval covering every span of
// that interval, and parents the interval's parentless spans to it. A
// root ends no earlier than ends[interval], when given: the moment the
// interval's profile was delivered.
func (t *tracer) rootIntervals(name string, ends []time.Time) {
	type bounds struct{ start, end int64 }
	roots := map[int]*bounds{}
	for _, s := range t.spans {
		b := roots[s.Interval]
		if b == nil {
			roots[s.Interval] = &bounds{s.Start, s.End}
			continue
		}
		b.start, b.end = min(b.start, s.Start), max(b.end, s.End)
	}
	idx := make(map[int]int, len(roots))
	ivs := make([]int, 0, len(roots))
	for iv := range roots {
		ivs = append(ivs, iv)
	}
	sort.Ints(ivs)
	n := len(t.spans)
	for _, iv := range ivs {
		b := roots[iv]
		if iv < len(ends) {
			b.end = max(b.end, int64(ends[iv].Sub(t.t0)))
		}
		idx[iv] = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Interval: iv, Parent: -1, Start: b.start, End: b.end})
	}
	for i := 0; i < n; i++ {
		if t.spans[i].Parent < 0 {
			t.spans[i].Parent = idx[t.spans[i].Interval]
		}
	}
}

// selfTimes returns, per span name, the summed self time — each span's
// duration minus the part of it its child spans cover — and the spans'
// individual self times.
func (t *tracer) selfTimes() map[string][]time.Duration {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		self := s.End - s.Start - covered(t.spans, s, children[i])
		out[s.Name] = append(out[s.Name], time.Duration(self))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(spans []span, parent span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, x := range ivs {
		if x.a > end {
			end = x.a
		}
		if x.b > end {
			total += x.b - end
			end = x.b
		}
	}
	return total
}

// writeSpans writes every tracer's spans to path as one JSON document.
func writeSpans(path string, meta map[string]any, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"meta": meta}
	phases := map[string][]span{}
	for _, t := range tracers {
		if t != nil {
			phases[t.phase] = t.spans
		}
	}
	doc["phases"] = phases
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
