package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Env is where and from what a run was made.
type Env struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"` // git commit, or "unknown" outside a git checkout
	Tree       string `json:"tree"`   // digest of the Go sources built
}

// Record is one run's result: what ran, with which inputs, where, and
// every figure with its unit and sample count.
type Record struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	Env       Env    `json:"env"`
	Params    Params `json:"params"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`

	// Metrics are the figures the result line carries: the end-to-end
	// metrics, or the per-layer ones on a traced run. Report holds the
	// figures printed beside them that not every workload has.
	Metrics     map[string]figure `json:"metrics"`
	Report      map[string]figure `json:"report"`
	Attribution []string          `json:"attribution,omitempty"`
	Spans       string            `json:"spans,omitempty"`
}

// fill records a reference check's counts and outcome.
func (r *Record) fill(v verdict, err error) {
	r.Attempted, r.Failed, r.Correct = v.attempted, v.failed, err == nil
}

// environment describes this host and the sources under root.
func environment(root, commit string) (Env, error) {
	if commit == "" {
		commit = "unknown"
	}
	tree, err := treeDigest(root)
	if err != nil {
		return Env{}, err
	}
	return Env{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit,
		Tree:       tree,
	}, nil
}

// treeDigest hashes the path and contents of every Go source and go.mod
// under root, skipping hidden directories and build output, so results
// from a checkout that is not a git repository still name their code.
func treeDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printRecord writes the human-readable report of one run.
func printRecord(w io.Writer, r *Record) {
	p := r.Params
	loop := "closed loop"
	if p.InFlight > 0 {
		loop += fmt.Sprintf(" with %d interval(s) in flight", p.InFlight)
	}
	if p.Procs > 0 {
		loop += fmt.Sprintf(", GOMAXPROCS %d in the daemon and while measuring", p.Procs)
	}
	if p.Rate > 0 {
		loop = fmt.Sprintf("open loop at %.0f events/s, %v ticks", p.Rate, p.Tick)
	}
	path := "hwprof.Profile in process"
	if p.Remote {
		path = "hwprof.Connect to profiled " + strings.Join(p.DaemonFlags, " ")
		if p.Subscribe {
			path += ", plus hwprof.Subscribe"
		}
	}
	fmt.Fprintf(w, "e2ebench %s  seed %d  %ds  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "  env: nproc %d, GOMAXPROCS %d, %s %s, commit %s, tree %s\n",
		r.Env.Nproc, r.Env.GOMAXPROCS, r.Env.Go, r.Env.Platform, r.Env.Commit, r.Env.Tree)
	fmt.Fprintf(w, "  load: %s, %s, %s stream (%d events, cycled), %d-event intervals at %.2g%%, %dx%d counters, %d shard(s), %d-event frames\n",
		path, loop, p.Stream, p.StreamEvents, p.L(), p.Config.ThresholdPercent,
		p.Config.NumTables, p.Config.TotalEntries/max(p.Config.NumTables, 1), p.Shards, p.Frame)
	fmt.Fprintf(w, "  check: %d expected deliveries, %d failed, correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.Metrics == nil {
		return
	}
	if r.Trace {
		printFigures(w, "per-layer", perLayer, r.Metrics)
		printFigures(w, "per-layer, this workload only", nil, r.Report)
		fmt.Fprintln(w, "  attribution (path layers side by side; concurrent stages overlap, so the residual may be negative)")
		for _, line := range r.Attribution {
			fmt.Fprintln(w, "    "+line)
		}
		if r.Spans != "" {
			fmt.Fprintf(w, "  spans: %s\n", r.Spans)
		}
		return
	}
	printFigures(w, "end-to-end", endToEnd, r.Metrics)
	printFigures(w, "reported beside them", nil, r.Report)
}

// ResultSet is what -repeat saves and -compare reads: every record of
// every repeated run.
type ResultSet struct {
	Runs []Record `json:"runs"`
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json.
func bounds(root string) map[string]float64 {
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	if readJSON(filepath.Join(root, "BENCHMARK.json"), &doc) == nil {
		for _, m := range doc.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// repeatMode runs each named workload k times in fresh processes, with
// consecutive seeds, and prints every metric's median, quartiles and
// spread next to its bound.
func repeatMode(w io.Writer, root, names string, k int, seed uint64, seconds int, traced bool, save string, inherit []string) error {
	var ws []string
	if names == "all" {
		for _, p := range workloads {
			ws = append(ws, p.Name)
		}
	} else {
		ws = strings.Split(names, ",")
	}
	for _, name := range ws {
		if _, err := workloadByName(name); err != nil {
			return err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := tmpDir(filepath.Join(root, ".bench_build", "tmp"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	trace := "0"
	if traced {
		trace = "1"
	}
	var set ResultSet
	for i := 0; i < k; i++ {
		for _, name := range ws {
			s := seed + uint64(i)
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, s))
			args := append([]string{"-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", trace, "-record", path}, inherit...)
			cmd := exec.Command(self, args...)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", name, s, err, out.String())
			}
			var rec Record
			if err := readJSON(path, &rec); err != nil {
				return err
			}
			fmt.Fprintf(w, "run %d/%d %s seed %d: correct %v, %d/%d failed\n", i+1, k, name, s, rec.Correct, rec.Failed, rec.Attempted)
			set.Runs = append(set.Runs, rec)
		}
	}
	printSpreads(w, root, set)
	if save != "" {
		return writeJSON(save, set)
	}
	return nil
}

// byWorkload groups a result set's records, in workload order.
func byWorkload(set ResultSet) (names []string, groups map[string][]Record) {
	groups = map[string][]Record{}
	for _, r := range set.Runs {
		if groups[r.Workload] == nil {
			names = append(names, r.Workload)
		}
		groups[r.Workload] = append(groups[r.Workload], r)
	}
	return names, groups
}

// values collects one metric, or one reported figure, over records.
func values(recs []Record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if f, ok := r.Metrics[name]; ok {
			xs = append(xs, f.Value)
		} else if f, ok := r.Report[name]; ok {
			xs = append(xs, f.Value)
		}
	}
	return xs
}

// reportNames lists the reported figures every record carries, sorted.
func reportNames(recs []Record) []string {
	count := map[string]int{}
	for _, r := range recs {
		for n := range r.Report {
			count[n]++
		}
	}
	var names []string
	for n, c := range count {
		if c == len(recs) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func metricNames(recs []Record) []string {
	defs := endToEnd
	if len(recs) > 0 && recs[0].Trace {
		defs = perLayer
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// printSpreads prints, per workload and metric, the median, quartiles and
// spread of the repeated runs against the metric's bound: steady below a
// third of it, wide above it.
func printSpreads(w io.Writer, root string, set ResultSet) {
	bs := bounds(root)
	names, groups := byWorkload(set)
	for _, name := range names {
		recs := groups[name]
		fmt.Fprintf(w, "\n%s: %d runs\n", name, len(recs))
		fmt.Fprintf(w, "  %-32s %14s %14s %14s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, m := range metricNames(recs) {
			xs := values(recs, m)
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			b, ok := bs[m]
			verdict, bound := "", "-"
			if ok {
				bound = fmt.Sprintf("%.3f", b)
				switch {
				case sp <= b/3:
					verdict = "steady"
				case sp <= b:
					verdict = "within bound"
				default:
					verdict = "wider than bound"
				}
			}
			fmt.Fprintf(w, "  %-32s %14.4f %14.4f %14.4f %8.4f %7s  %s\n", m, median(xs), q1, q3, sp, bound, verdict)
		}
	}
}

// compareMode compares two saved result sets metric by metric, one row
// per workload. It refuses workloads whose parameters differ. A change
// beyond the bound is worse or better; where either side's spread is
// wider than the bound the metric is unresolved, unless every run of one
// side beats every run of the other.
func compareMode(w io.Writer, root, oldPath, newPath string) error {
	var a, b ResultSet
	if err := readJSON(oldPath, &a); err != nil {
		return err
	}
	if err := readJSON(newPath, &b); err != nil {
		return err
	}
	an, ag := byWorkload(a)
	_, bg := byWorkload(b)
	for _, name := range an {
		if bg[name] == nil {
			continue
		}
		if err := sameParams(ag[name], bg[name]); err != nil {
			return fmt.Errorf("refusing to compare %s: %w", name, err)
		}
	}
	bs := bounds(root)
	better := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		better[d.Name] = d.Better
	}
	fmt.Fprintf(w, "%s (old) vs %s (new): change of the median, positive = worse\n", oldPath, newPath)
	for _, name := range an {
		if bg[name] == nil {
			fmt.Fprintf(w, "%-14s  absent from %s\n", name, newPath)
			continue
		}
		row := func(names []string) string {
			var cells []string
			for _, m := range names {
				xa, xb := values(ag[name], m), values(bg[name], m)
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				cells = append(cells, fmt.Sprintf("%s %s", m, judge(xa, xb, bs[m], better[m] == "higher")))
			}
			return strings.Join(cells, " | ")
		}
		fmt.Fprintf(w, "%-14s  %s\n", name, row(metricNames(ag[name])))
		fmt.Fprintf(w, "%-14s  reported, no bound: %s\n", "", row(reportNames(ag[name])))
	}
	return nil
}

// judge rates new samples against old ones for a metric with the given
// bound (0 when it has none).
func judge(old, cur []float64, bound float64, higherBetter bool) string {
	mo, mc := median(old), median(cur)
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	if mo == 0 {
		// A change cannot be a share of a zero median: give it absolute.
		q1o, q3o := quartiles(old)
		q1c, q3c := quartiles(cur)
		return fmt.Sprintf("%+.4g absolute (IQR %.4g/%.4g)", sign*(mc-mo), q3o-q1o, q3c-q1c)
	}
	worse := sign * (mc - mo) / mo
	text := fmt.Sprintf("%+.1f%%", 100*worse)
	if bound == 0 {
		return fmt.Sprintf("%s (spread %.2f/%.2f)", text, spread(old), spread(cur))
	}
	sort.Float64s(old)
	sort.Float64s(cur)
	allBetter := (!higherBetter && cur[len(cur)-1] < old[0]) || (higherBetter && cur[0] > old[len(old)-1])
	allWorse := (!higherBetter && cur[0] > old[len(old)-1]) || (higherBetter && cur[len(cur)-1] < old[0])
	switch {
	case max(spread(old), spread(cur)) > bound:
		switch {
		case allBetter:
			return text + " better"
		case allWorse:
			return text + " worse"
		}
		return text + " unresolved"
	case worse > bound:
		return text + " worse"
	case -worse > bound:
		return text + " better"
	}
	return text + " unchanged"
}

// sameParams reports how two groups of records differ in what they ran.
func sameParams(a, b []Record) error {
	key := func(r Record) string {
		p, _ := json.Marshal(r.Params)
		return fmt.Sprintf("%s seconds=%d trace=%v", p, r.Seconds, r.Trace)
	}
	want := key(a[0])
	for _, r := range append(append([]Record{}, a...), b...) {
		if k := key(r); k != want {
			return fmt.Errorf("parameters differ:\n  %s\n  %s", want, k)
		}
	}
	return nil
}
