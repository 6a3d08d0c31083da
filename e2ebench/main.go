// Command e2ebench is the repository's end-to-end benchmark: it runs one
// named workload against the public entry points — hwprof.Profile in
// process, or hwprof.Connect and hwprof.Subscribe against a profiled
// daemon it spawns on loopback — checks every delivered profile and epoch
// against a local reference run, and prints the metrics by name with
// their units and sample counts. The last line of standard output is one
// JSON object: the end-to-end metrics, or with -trace 1 the per-layer
// metrics and their attribution.
//
// Run it through run.sh, which builds the daemon and the benchmark from
// the checkout first:
//
//	bash e2ebench/run.sh -workload remote-short -seed 1 -seconds 20 -trace 0
//	bash e2ebench/run.sh -workload durable-paced -seed 1 -seconds 20 -trace 1
//	bash e2ebench/run.sh -workload all -repeat 5 -seconds 20 -save base.json
//	bash e2ebench/run.sh -compare base.json,change.json
//
// See README.md in this directory for the workloads, the metrics and how
// to read the attribution.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"hwprof"
)

// runEnv is what every run of this process shares.
type runEnv struct {
	profiled string // daemon binary
	root     string // checkout root
	tmp      string // this run's temporary directory
	env      Env
}

func main() {
	var (
		workload     = flag.String("workload", "", "workload: local-long, remote-short or durable-paced (with -repeat, a comma-separated list or all)")
		seed         = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds      = flag.Int("seconds", 20, "length of the measured window in seconds")
		traced       = flag.Int("trace", 0, "1 runs the traced run: per-layer metrics and attribution instead of the end-to-end metrics")
		recordPath   = flag.String("record", "", "write the full run record (every figure, sample counts, parameters) as JSON to this file")
		repeat       = flag.Int("repeat", 0, "run each workload this many times, with seeds seed, seed+1, ..., and print each metric's median, quartiles and spread next to its bound")
		savePath     = flag.String("save", "", "with -repeat: save the result set to this file, for -compare")
		compareSets  = flag.String("compare", "", "OLD,NEW: compare two saved result sets metric by metric, one row per workload")
		cpuProfile   = flag.String("cpu-profile", "", "write a CPU profile of this process to the file (covers local-long and the traced layer replay)")
		traceProfile = flag.String("trace-profile", "", "write a Go execution trace of this process to the file")
		tamperFlag   = flag.Bool("tamper", false, "change one delivered profile before the reference check, which must then fail")
		closedLoop   = flag.Bool("closed-loop", false, "run the workload closed-loop, without its open-loop rate: how the capacity that rate is set against is measured")
		profiled     = flag.String("profiled", "", "path of the profiled binary the remote workloads spawn")
		root         = flag.String("root", ".", "checkout root: where BENCHMARK.json is read and .bench_build/ is written")
		commit       = flag.String("commit", "", "commit the binaries were built from, when known")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *compareSets != "" {
		old, cur, ok := strings.Cut(*compareSets, ",")
		if !ok {
			fail(2, errors.New("-compare wants OLD,NEW"))
		}
		if err := compareMode(os.Stdout, *root, old, cur); err != nil {
			fail(2, err)
		}
		return
	}
	if *workload == "" {
		fail(2, errors.New("-workload is required"))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fail(2, fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	env, err := environment(*root, *commit)
	if err != nil {
		fail(2, err)
	}
	if *repeat > 0 {
		if err := repeatMode(os.Stdout, *root, *workload, *repeat, *seed, *seconds, *traced == 1, *savePath, passThrough()); err != nil {
			fail(2, err)
		}
		return
	}
	p, err := workloadByName(*workload)
	if err != nil {
		fail(2, err)
	}
	if *closedLoop {
		p.Rate, p.Tick = 0, 0
	}
	if p.Remote && *profiled == "" {
		fail(2, errors.New("-profiled is required for the remote workloads (run.sh passes it)"))
	}
	e := &runEnv{profiled: *profiled, root: *root, env: env}
	if e.tmp, err = tmpDir(filepath.Join(*root, ".bench_build", "tmp")); err != nil {
		fail(2, err)
	}
	defer os.RemoveAll(e.tmp)

	stopProfiles, err := startProfiles(*cpuProfile, *traceProfile)
	if err != nil {
		fail(2, err)
	}
	spans := filepath.Join(*root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", p.Name, *seed))
	rec, runErr := run(e, p, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *tamperFlag, spans)
	if err := stopProfiles(); err != nil && runErr == nil {
		runErr = err
	}
	var div *divergence
	if runErr != nil && !errors.As(runErr, &div) {
		os.RemoveAll(e.tmp)
		fail(2, runErr)
	}
	rec.Seconds = *seconds
	printRecord(os.Stdout, rec)
	if *recordPath != "" {
		if err := writeJSON(*recordPath, rec); err != nil {
			os.RemoveAll(e.tmp)
			fail(2, err)
		}
	}
	if err := printResultLine(os.Stdout, rec); err != nil {
		os.RemoveAll(e.tmp)
		fail(2, err)
	}
	if div != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", div)
		os.RemoveAll(e.tmp)
		os.Exit(1)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(code)
}

// passThrough returns the flags a repeated run inherits from this one.
func passThrough() []string {
	var args []string
	for _, name := range []string{"profiled", "root", "commit", "closed-loop"} {
		args = append(args, "-"+name+"="+flag.Lookup(name).Value.String())
	}
	return args
}

// startProfiles starts the CPU profile and execution trace the flags ask
// for and returns the function that stops and writes them.
func startProfiles(cpuPath, tracePath string) (func() error, error) {
	var files []*os.File
	stop := func() error {
		if cpuPath != "" {
			pprof.StopCPUProfile()
		}
		if tracePath != "" {
			trace.Stop()
		}
		var first error
		for _, f := range files {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			stop()
			return nil, err
		}
		files = append(files, f)
		if err := trace.Start(f); err != nil {
			stop()
			return nil, err
		}
	}
	return stop, nil
}

// run generates the inputs, measures the workload, checks its deliveries
// against the local reference, and computes the figures. A *divergence
// error comes back with a record marked incorrect.
func run(e *runEnv, p Params, seed uint64, seconds time.Duration, traced, doTamper bool, spansPath string) (*Record, error) {
	rec := &Record{Workload: p.Name, Seed: seed, Trace: traced, Env: e.env, Params: p}
	stream, err := generate(p, seed)
	if err != nil {
		return nil, err
	}
	if !traced {
		m, err := measure(e, p, stream, seconds, setupRepeats, nil)
		if err != nil {
			return nil, err
		}
		v, err := verify(p, stream, m, doTamper)
		rec.fill(v, err)
		if err != nil {
			return rec, err
		}
		rec.Metrics, rec.Report = endToEndFigures(p, m)
		reportAccuracy(rec, p, stream, m.profiles)
		return rec, nil
	}

	// The traced run: an untraced window, a traced one, then the layer
	// replay; the first is the base the other two are attributed against.
	half := seconds / 2
	untraced, err := measure(e, p, stream, half, 1, nil)
	if err != nil {
		return nil, err
	}
	v, err := verify(p, stream, untraced, doTamper)
	rec.fill(v, err)
	if err != nil {
		return rec, err
	}
	e2e := newTracer("e2e")
	tracedM, err := measure(e, p, stream, seconds-half, 1, e2e)
	if err != nil {
		return nil, err
	}
	v2, err := verify(p, stream, tracedM, false)
	rec.fill(verdict{attempted: rec.Attempted + v2.attempted, failed: rec.Failed + v2.failed}, err)
	if err != nil {
		return rec, err
	}
	replay, coreReplay := newTracer("replay"), newTracer("replay-core")
	st, err := replayLayers(p, stream, v.ref, e.tmp, replay)
	if err == nil {
		err = replayCore(p, stream, v.ref, st.events, coreReplay)
	}
	if err != nil {
		var div *divergence
		if errors.As(err, &div) {
			rec.Correct = false
		}
		return rec, err
	}
	var attrib []string
	rec.Metrics, rec.Report, attrib = layerFigures(p, untraced, tracedM, e2e, replay, coreReplay, st)
	reportAccuracy(rec, p, stream, untraced.profiles)
	rec.Attribution = attrib
	rec.Spans = spansPath
	meta := map[string]any{"workload": p.Name, "seed": seed, "env": e.env}
	if err := writeSpans(spansPath, meta, e2e, replay, coreReplay); err != nil {
		return nil, err
	}
	return rec, nil
}

// reportAccuracy adds the accuracy of a window's delivered profiles to
// the figures reported beside the result line, not on it: they are
// deterministic per seed, and the net error is 0 for most seeds of the
// 10k-event workloads.
func reportAccuracy(rec *Record, p Params, stream []hwprof.Tuple, profiles []map[hwprof.Tuple]uint64) {
	netErr, falsePos, n := accuracy(p, stream, profiles)
	rec.Report["net_error_pct"] = figure{Value: netErr, Unit: "%", Samples: n}
	rec.Report["core.false_positive_frac"] = figure{Value: falsePos, Unit: "ratio", Samples: n}
}

func measure(e *runEnv, p Params, stream []hwprof.Tuple, seconds time.Duration, repeats int, tr *tracer) (*measurement, error) {
	if p.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.Procs))
	}
	if p.Remote {
		return runRemote(e, p, stream, seconds, repeats, tr)
	}
	return runLocal(p, stream, seconds, tr)
}

// verdict is the reference check's outcome for one window.
type verdict struct {
	ref               []uint32
	attempted, failed int
}

// verify checks one window's deliveries against the local reference: a
// divergence is an error, a missing, out-of-order or partial delivery a
// failure.
func verify(p Params, stream []hwprof.Tuple, m *measurement, doTamper bool) (verdict, error) {
	if !p.Remote {
		ref, err := reference(p, stream, len(stream))
		if err != nil {
			return verdict{}, err
		}
		if doTamper && tamper(m.profiles) { // the kept pass, the last
			m.passes[len(m.passes)-1], _ = digests(m.profiles)
		}
		v := verdict{ref: ref, attempted: m.intervals}
		all := make([]bool, len(ref))
		for i := range all {
			all[i] = true
		}
		for pass, d := range m.passes {
			missing, err := compare(p.Name, fmt.Sprintf("pass %d interval", pass), d, all, ref)
			v.failed += missing
			if err != nil {
				return v, err
			}
		}
		return v, nil
	}
	ref, err := reference(p, stream, max(m.events, p.ReplayEvents))
	if err != nil {
		return verdict{}, err
	}
	want := ref[:m.intervals]
	if doTamper {
		tamper(m.profiles)
	}
	got, present := digests(m.profiles)
	v := verdict{ref: ref, attempted: len(want)}
	missing, err := compare(p.Name, "interval", got, present, want)
	v.failed += missing
	if err != nil {
		return v, err
	}
	if p.Subscribe {
		got, present = digests(m.epochs)
		v.attempted += len(want)
		missing, err := compare(p.Name, "epoch", got, present, want)
		v.failed += missing
		if err != nil {
			return v, err
		}
	}
	return v, nil
}

// printResultLine prints the one-line result: the end-to-end metrics, or
// the per-layer ones on a traced run.
func printResultLine(w *os.File, rec *Record) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	if rec.Correct {
		if err := finite(rec.Metrics); err != nil {
			return err
		}
		for _, d := range defs {
			f, ok := rec.Metrics[d.Name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			metrics[d.Name] = value{f.Value, f.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
