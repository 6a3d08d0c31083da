package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"time"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is the untraced run's result line: the metrics every workload
// has and repeats steadily enough to gate a change on. Delivery latency
// is reported beside them, not in them: on the durable path every profile
// waits for an fsync, and on a shared virtual disk the fsync latency
// shifts whole runs by a factor of two.
var endToEnd = []metricDef{
	{"events_per_s", "events/s", "higher"},
	{"cpu_ns_per_event", "ns/event", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is the traced run's result: the layer figures every workload
// yields from the layer replay, plus the attribution.
var perLayer = []metricDef{
	{"wire.batch_encode_ns_per_event", "ns/event", "lower"},
	{"wire.batch_decode_ns_per_event", "ns/event", "lower"},
	{"wire.bytes_per_event", "B/event", "lower"},
	{"wire.frame_ns", "ns/frame", "lower"},
	{"wire.profile_encode_us", "us", "lower"},
	{"wire.profile_decode_us", "us", "lower"},
	{"wire.profile_bytes", "B", "lower"},
	{"shard.new_ms", "ms", "lower"},
	{"shard.observe_ns_per_event", "ns/event", "lower"},
	{"shard.end_interval_us", "us", "lower"},
	{"core.observe_ns_per_event", "ns/event", "lower"},
	{"core.end_interval_us", "us", "lower"},
	{"core.profile_tuples", "count", "lower"},
	{"journal.batch_ns_per_event", "ns/event", "lower"},
	{"journal.boundary_us", "us", "lower"},
	{"journal.bytes_per_event", "B/event", "lower"},
	{"journal.fsyncs_per_interval", "count", "lower"},
	{"agg.report_us", "us", "lower"},
	{"agg.deliver_us", "us", "lower"},
	{"attrib.layer_sum_ns_per_event", "ns/event", "lower"},
	{"attrib.residual_ns_per_event", "ns/event", "lower"},
	{"attrib.trace_overhead_frac", "ratio", "lower"},
}

// figure is one reported number: its value, unit, and how many samples
// it summarizes.
type figure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// tailFigure reports the q-quantile of latency samples and notes how many
// samples lie beyond it; fewer than ten make it unreliable.
func tailFigure(xs []float64, q float64) figure {
	n := beyond(xs, q)
	f := figure{Value: quantile(xs, q), Unit: "ms", Samples: len(xs), Note: fmt.Sprintf("%d beyond", n)}
	if n < 10 {
		f.Note += "; fewer than 10, unreliable"
	}
	return f
}

// endToEndFigures computes the untraced metrics of one window, plus the
// report-only figures of the workloads that have them.
func endToEndFigures(p Params, m *measurement) (main, extra map[string]figure) {
	main = map[string]figure{
		"events_per_s":     {Value: float64(m.events) / m.wall.Seconds(), Unit: "events/s", Samples: m.events},
		"cpu_ns_per_event": {Value: float64(m.cpu) / float64(m.events), Unit: "ns/event", Samples: m.events},
		"setup_s":          {Value: median(m.setup), Unit: "s", Samples: len(m.setup)},
		"peak_rss_mb":      {Value: median(m.rss), Unit: "MB", Samples: len(m.rss)},
	}
	extra = map[string]figure{
		"interval_p50_ms": tailFigure(m.interval, 0.5),
		"interval_p90_ms": tailFigure(m.interval, 0.9),
		"interval_p99_ms": tailFigure(m.interval, 0.99),
	}
	if len(m.epoch) > 0 {
		extra["epoch_p50_ms"] = tailFigure(m.epoch, 0.5)
		extra["epoch_p90_ms"] = tailFigure(m.epoch, 0.9)
		extra["epoch_p99_ms"] = tailFigure(m.epoch, 0.99)
	}
	if p.Remote {
		extra["server.ready_ms"] = figure{Value: median(m.ready), Unit: "ms", Samples: len(m.ready)}
		extra["server.open_ms"] = figure{Value: median(m.open), Unit: "ms", Samples: len(m.open)}
		extra["client.frames_per_interval"] = figure{Value: float64(m.frames) / float64(m.intervals), Unit: "count", Samples: m.intervals}
	}
	if len(m.late) > 0 {
		extra["gen.late_p50_ms"] = tailFigure(m.late, 0.5)
		extra["gen.late_p99_ms"] = tailFigure(m.late, 0.99)
	}
	return main, extra
}

// basis is the end-to-end ns/event the layer figures are attributed
// against: wall time per event on a closed loop, where the system sets
// the pace, and CPU time per event on an open loop, where the schedule
// does.
func basis(p Params, m *measurement) float64 {
	if p.Rate > 0 {
		return float64(m.cpu) / float64(m.events)
	}
	return float64(m.wall) / float64(m.events)
}

// pathLayers are the replayed layers each event of the workload crosses,
// besides client.send on the remote ones.
func pathLayers(p Params) []string {
	layers := []string{"shard.observe", "shard.end_interval", "core.observe", "core.end_interval"}
	if p.Remote {
		layers = append(layers, "wire.batch_decode", "wire.profile_encode", "wire.profile_decode")
	}
	if p.Journal {
		layers = append(layers, "journal.batch", "journal.boundary")
	}
	if p.Subscribe {
		layers = append(layers, "agg.report", "agg.deliver")
	}
	return layers
}

// layerFigures computes the traced run's per-layer metrics and the
// attribution; extra holds the remote-only figures of the traced window.
func layerFigures(p Params, untraced, traced *measurement, e2e, replay, coreReplay *tracer, st *replayStats) (main, extra map[string]figure, attrib []string) {
	self := replay.selfTimes()
	maps.Copy(self, coreReplay.selfTimes())
	ev := float64(st.events)
	perEvent := func(name string) float64 { return float64(total(self[name])) / ev }
	medUS := func(name string) float64 { return medianDur(self[name]) / 1e3 }
	span := func(name string) int { return len(self[name]) }
	// core.end_interval is two spans per boundary: EndInterval and Recycle.
	coreEnd := make([]time.Duration, 0, st.intervals)
	for i := 0; i+1 < len(self["core.end_interval"]); i += 2 {
		coreEnd = append(coreEnd, self["core.end_interval"][i]+self["core.end_interval"][i+1])
	}
	deliver := spanDurations(replay, "agg.deliver")

	main = map[string]figure{
		"wire.batch_encode_ns_per_event": {Value: perEvent("wire.batch_encode"), Unit: "ns/event", Samples: span("wire.batch_encode")},
		"wire.batch_decode_ns_per_event": {Value: perEvent("wire.batch_decode"), Unit: "ns/event", Samples: span("wire.batch_decode")},
		"wire.bytes_per_event":           {Value: float64(st.frameBytes) / ev, Unit: "B/event", Samples: st.frames},
		"wire.frame_ns":                  {Value: medianDur(self["wire.frame"]), Unit: "ns/frame", Samples: span("wire.frame")},
		"wire.profile_encode_us":         {Value: medUS("wire.profile_encode"), Unit: "us", Samples: span("wire.profile_encode")},
		"wire.profile_decode_us":         {Value: medUS("wire.profile_decode"), Unit: "us", Samples: span("wire.profile_decode")},
		"wire.profile_bytes":             {Value: float64(st.profileBytes) / float64(st.intervals), Unit: "B", Samples: st.intervals},
		"shard.new_ms":                   {Value: median(st.shardNew), Unit: "ms", Samples: len(st.shardNew)},
		"shard.observe_ns_per_event":     {Value: perEvent("shard.observe"), Unit: "ns/event", Samples: span("shard.observe")},
		"shard.end_interval_us":          {Value: medUS("shard.end_interval"), Unit: "us", Samples: span("shard.end_interval")},
		"core.observe_ns_per_event":      {Value: perEvent("core.observe"), Unit: "ns/event", Samples: span("core.observe")},
		"core.end_interval_us":           {Value: medianDur(coreEnd) / 1e3, Unit: "us", Samples: len(coreEnd)},
		"core.profile_tuples":            {Value: float64(st.profileTuples) / float64(st.intervals), Unit: "count", Samples: st.intervals},
		"journal.batch_ns_per_event":     {Value: perEvent("journal.batch"), Unit: "ns/event", Samples: span("journal.batch")},
		"journal.boundary_us":            {Value: medUS("journal.boundary"), Unit: "us", Samples: span("journal.boundary")},
		"journal.bytes_per_event":        {Value: float64(st.journalBytes) / ev, Unit: "B/event", Samples: st.events},
		"journal.fsyncs_per_interval":    {Value: float64(st.fsyncs) / float64(st.intervals), Unit: "count", Samples: st.intervals},
		"agg.report_us":                  {Value: medUS("agg.report"), Unit: "us", Samples: span("agg.report")},
		"agg.deliver_us":                 {Value: medianDur(deliver) / 1e3, Unit: "us", Samples: len(deliver)},
	}

	// Attribution: every path layer's self time per event, side by side.
	var layerSum float64
	for _, name := range pathLayers(p) {
		v := perEvent(name)
		layerSum += v
		attrib = append(attrib, fmt.Sprintf("%-22s %10.2f ns/event", name, v))
	}
	extra = map[string]figure{}
	if p.Remote {
		e2eSelf := e2e.selfTimes()
		send := float64(total(e2eSelf["client.send"])) / float64(traced.events)
		layerSum += send
		attrib = append(attrib, fmt.Sprintf("%-22s %10.2f ns/event (traced remote session)", "client.send", send))
		extra["client.send_ns_per_event"] = figure{Value: send, Unit: "ns/event", Samples: len(e2eSelf["client.send"])}
		s := traced.server
		if c := s["hwprof_interval_latency_seconds_count"]; c > 0 {
			extra["server.boundary_to_write_us"] = figure{Value: 1e6 * s["hwprof_interval_latency_seconds_sum"] / c, Unit: "us", Samples: int(c)}
		}
		extra["server.queue_depth_mean"] = figure{Value: mean(traced.queue), Unit: "batches", Samples: len(traced.queue)}
		extra["server.failures"] = figure{Value: s["hwprof_session_errors_total"] + s["hwprof_frames_corrupt_total"] +
			s["hwprof_events_shed_total"] + s["hwprof_resume_failures_total"], Unit: "count", Samples: 1}
		if p.Subscribe {
			extra["agg.partial_epochs"] = figure{Value: s["hwprof_epochs_partial_total"], Unit: "count", Samples: int(s["hwprof_epochs_total"])}
		}
	}
	base, tracedBase := basis(p, untraced), basis(p, traced)
	main["attrib.layer_sum_ns_per_event"] = figure{Value: layerSum, Unit: "ns/event", Samples: len(attrib)}
	main["attrib.residual_ns_per_event"] = figure{Value: base - layerSum, Unit: "ns/event", Samples: untraced.events}
	main["attrib.trace_overhead_frac"] = figure{Value: (tracedBase - base) / base, Unit: "ratio", Samples: traced.events}
	what := "wall"
	if p.Rate > 0 {
		what = "CPU"
	}
	attrib = append(attrib,
		fmt.Sprintf("%-22s %10.2f ns/event", "layer sum", layerSum),
		fmt.Sprintf("%-22s %10.2f ns/event (untraced %s time per event)", "end to end", base, what),
		fmt.Sprintf("%-22s %10.2f ns/event", "residual", base-layerSum),
		fmt.Sprintf("%-22s %10.2f ns/event (%+.1f%% tracing overhead)", "traced end to end", tracedBase, 100*(tracedBase-base)/base))
	return main, extra, attrib
}

// spanDurations returns the whole durations of the named spans.
func spanDurations(t *tracer, name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// printFigures writes a name/value/unit/samples table, in defs order
// first and then the remaining names sorted.
func printFigures(w io.Writer, title string, defs []metricDef, figs map[string]figure) {
	fmt.Fprintf(w, "  %s\n", title)
	names := make([]string, 0, len(figs))
	seen := map[string]bool{}
	for _, d := range defs {
		if _, ok := figs[d.Name]; ok {
			names = append(names, d.Name)
			seen[d.Name] = true
		}
	}
	var rest []string
	for n := range figs {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range append(names, rest...) {
		f := figs[n]
		note := ""
		if f.Note != "" {
			note = "  (" + f.Note + ")"
		}
		fmt.Fprintf(w, "    %-32s %16.4f %-9s %8d samples%s\n", n, f.Value, f.Unit, f.Samples, note)
	}
}

// finite reports whether every figure's value is a finite number.
func finite(figs map[string]figure) error {
	for n, f := range figs {
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, f.Value)
		}
	}
	return nil
}
