// benchrun executes the fixed-seed hot-path benchmark suite
// (internal/benchsuite) and emits the results as JSON — the format of the
// repository's BENCH_*.json perf-trajectory files.
//
// Usage:
//
//	go run ./cmd/benchrun -out baseline.json
//	...change the hot path...
//	go run ./cmd/benchrun -baseline baseline.json -out BENCH_3.json
//
// With -baseline the previous run is embedded in the output and a
// per-case speedup (baseline ns/event ÷ current ns/event, falling back to
// ns/op for component cases) is computed, so a single committed file
// carries the before/after pair.
//
// Two more modes serve CI:
//
//	go run ./cmd/benchrun -gate BENCH_5.json
//
// runs the suite and fails (exit 1) if any case allocates, or if any
// case's headline time regressed by more than -gate-threshold relative
// to the committed baseline. The regression check is normalized: each
// case's current/baseline ratio is divided by the median ratio across
// the suite before comparing against the threshold, so a CI runner that
// is uniformly slower (or faster) than the machine that produced the
// baseline does not trip the gate — only cases that regressed relative
// to the rest of the suite do. Cases over threshold get one re-measure
// at doubled benchtime (keeping the fastest run) before failing, so a
// transient scheduling hiccup is not a red build.
//
//	go run ./cmd/benchrun -delta old.json new.json
//
// runs no benchmarks: it prints a benchstat-style per-case delta table
// between two previously saved reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"hwprof/internal/benchsuite"
)

// CaseResult is one benchmark case's measurement. Advisory marks cases
// recorded for the trajectory but excluded from timing regression gates
// (their allocs are still gated).
type CaseResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerEvent  float64 `json:"ns_per_event,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Advisory    bool    `json:"advisory,omitempty"`
}

// Report is the BENCH_*.json document.
type Report struct {
	Date      string             `json:"date"`
	GoVersion string             `json:"go"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	Benchtime string             `json:"benchtime"`
	Cases     []CaseResult       `json:"cases"`
	Baseline  *Report            `json:"baseline,omitempty"`
	Speedup   map[string]float64 `json:"speedup,omitempty"`
}

// headline returns the case's per-event cost when it has one, else ns/op.
func (c CaseResult) headline() float64 {
	if c.NsPerEvent > 0 {
		return c.NsPerEvent
	}
	return c.NsPerOp
}

// unit names the headline metric.
func (c CaseResult) unit() string {
	if c.NsPerEvent > 0 {
		return "ns/event"
	}
	return "ns/op"
}

// measure runs one case until it accumulates benchtime of measured work.
func measure(f func(b *testing.B), benchtime time.Duration) testing.BenchmarkResult {
	// testing.Benchmark has no benchtime knob outside `go test`, so
	// grow iterations ourselves until the measured time is credible.
	last := testing.Benchmark(func(b *testing.B) { f(b) })
	for last.T < benchtime && last.N < 1<<30 {
		n := last.N * 4
		last = testing.Benchmark(func(b *testing.B) {
			if b.N < n {
				b.N = n
			}
			f(b)
		})
	}
	return last
}

// measureCase measures one case repeat times and keeps the fastest run —
// the min estimator discards frequency-scaling and scheduling noise,
// which on single-digit-ns component cases dwarfs any real change;
// allocations are identical across runs by construction.
func measureCase(c benchsuite.Case, benchtime time.Duration, repeat int) CaseResult {
	best := measure(c.F, benchtime)
	bestNs := float64(best.T.Nanoseconds()) / float64(best.N)
	for i := 1; i < repeat; i++ {
		r := measure(c.F, benchtime)
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < bestNs {
			best, bestNs = r, ns
		}
	}
	return CaseResult{
		Name:        c.Name,
		Iterations:  best.N,
		NsPerOp:     bestNs,
		NsPerEvent:  best.Extra["ns/event"],
		AllocsPerOp: best.AllocsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
		Advisory:    c.Advisory,
	}
}

// run executes the suite with min-of-repeat measurements per case.
func run(benchtime time.Duration, repeat int) Report {
	rep := Report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime.String(),
	}
	for _, c := range benchsuite.Suite() {
		fmt.Fprintf(os.Stderr, "running %-28s ", c.Name)
		res := measureCase(c, benchtime, repeat)
		rep.Cases = append(rep.Cases, res)
		fmt.Fprintf(os.Stderr, "%10.2f ns/op %8.2f ns/event %4d allocs/op\n",
			res.NsPerOp, res.NsPerEvent, res.AllocsPerOp)
	}
	return rep
}

func loadReport(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return Report{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rep, nil
}

// printDelta writes a benchstat-style per-case table of old vs new
// headline times. Cases present in only one report are listed with the
// other side blank.
func printDelta(w io.Writer, old, cur Report) {
	oldBy := make(map[string]CaseResult, len(old.Cases))
	for _, c := range old.Cases {
		oldBy[c.Name] = c
	}
	fmt.Fprintf(w, "%-30s %12s %12s %8s  %s\n", "case", "old", "new", "delta", "unit")
	for _, c := range cur.Cases {
		b, ok := oldBy[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-30s %12s %12.2f %8s  %s\n", c.Name, "-", c.headline(), "new", c.unit())
			continue
		}
		delete(oldBy, c.Name)
		delta := "~"
		if b.headline() > 0 {
			delta = fmt.Sprintf("%+.1f%%", (c.headline()/b.headline()-1)*100)
		}
		fmt.Fprintf(w, "%-30s %12.2f %12.2f %8s  %s\n",
			c.Name, b.headline(), c.headline(), delta, c.unit())
	}
	// Cases that disappeared, in the old report's order.
	for _, c := range old.Cases {
		if _, gone := oldBy[c.Name]; gone {
			fmt.Fprintf(w, "%-30s %12.2f %12s %8s  %s\n", c.Name, c.headline(), "-", "gone", c.unit())
		}
	}
}

// gate checks the current run against a committed baseline and returns
// the list of violations. Two gates apply:
//
//   - allocation-freedom: every case must report 0 allocs/op — the
//     steady-state hot path's zero-allocation contract;
//   - normalized regression: for non-advisory cases present in both
//     reports, the current/baseline headline ratio divided by the
//     suite's median ratio must not exceed maxRatio. Dividing by the
//     median cancels whole-machine speed differences between the
//     baseline machine and the CI runner, leaving only per-case
//     regressions.
type gateFail struct {
	name   string
	msg    string
	timing bool // a headline regression (retryable) rather than an alloc failure
}

func gate(cur, base Report, maxRatio float64) []gateFail {
	var fails []gateFail
	for _, c := range cur.Cases {
		if c.AllocsPerOp != 0 {
			fails = append(fails, gateFail{c.Name, fmt.Sprintf("%s: %d allocs/op (want 0)", c.Name, c.AllocsPerOp), false})
		}
	}
	baseBy := make(map[string]CaseResult, len(base.Cases))
	for _, c := range base.Cases {
		baseBy[c.Name] = c
	}
	type ratioCase struct {
		name  string
		ratio float64
	}
	var ratios []ratioCase
	for _, c := range cur.Cases {
		if c.Advisory {
			continue
		}
		if b, ok := baseBy[c.Name]; ok && b.headline() > 0 && c.headline() > 0 {
			ratios = append(ratios, ratioCase{c.Name, c.headline() / b.headline()})
		}
	}
	if len(ratios) == 0 {
		return append(fails, gateFail{"", "no cases in common with baseline", false})
	}
	sorted := make([]float64, len(ratios))
	for i, r := range ratios {
		sorted[i] = r.ratio
	}
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if n := len(sorted); n%2 == 0 {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	for _, r := range ratios {
		if norm := r.ratio / med; norm > maxRatio {
			fails = append(fails, gateFail{r.name, fmt.Sprintf(
				"%s: %.2fx vs baseline (%.2fx after normalizing by suite median %.2fx, threshold %.2fx)",
				r.name, r.ratio, norm, med, maxRatio), true})
		}
	}
	return fails
}

// timingFails returns the set of case names whose gate failure is a
// (retryable) timing regression.
func timingFails(fails []gateFail) map[string]bool {
	out := make(map[string]bool)
	for _, f := range fails {
		if f.timing {
			out[f.name] = true
		}
	}
	return out
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baselinePath := flag.String("baseline", "", "previous benchrun JSON to embed for before/after comparison")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measured time per case")
	repeat := flag.Int("repeat", 1, "measure each case this many times and keep the fastest (min estimator)")
	gatePath := flag.String("gate", "", "baseline JSON to gate against: exit 1 on allocations or normalized headline regression")
	gateThreshold := flag.Float64("gate-threshold", 1.25, "max allowed current/baseline headline ratio after median normalization")
	deltaMode := flag.Bool("delta", false, "compare two saved reports (args: old.json new.json); runs no benchmarks")
	flag.Parse()

	if *deltaMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchrun: -delta needs exactly two report files: old.json new.json")
			os.Exit(2)
		}
		old, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		cur, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		printDelta(os.Stdout, old, cur)
		return
	}

	if *repeat < 1 {
		*repeat = 1
	}
	rep := run(*benchtime, *repeat)

	if *gatePath != "" {
		base, err := loadReport(*gatePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		fails := gate(rep, base, *gateThreshold)
		// Timing regressions get one retry at doubled benchtime before
		// they fail the gate: the committed baseline is a min estimate,
		// so a transiently noisy run can sit above threshold without any
		// real regression. Keep the fastest measurement seen either way.
		if retry := timingFails(fails); len(retry) > 0 {
			fmt.Fprintf(os.Stderr, "benchrun: re-measuring %d regressed case(s) at 2x benchtime\n", len(retry))
			byName := make(map[string]benchsuite.Case)
			for _, c := range benchsuite.Suite() {
				byName[c.Name] = c
			}
			for i := range rep.Cases {
				c := &rep.Cases[i]
				if !retry[c.Name] {
					continue
				}
				r := measureCase(byName[c.Name], 2*(*benchtime), *repeat)
				if r.headline() < c.headline() {
					*c = r
				}
				fmt.Fprintf(os.Stderr, "retried %-28s %10.2f ns/op %8.2f ns/event\n",
					c.Name, c.NsPerOp, c.NsPerEvent)
			}
			fails = gate(rep, base, *gateThreshold)
		}
		printDelta(os.Stderr, base, rep)
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "benchrun: GATE FAIL:", f.msg)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchrun: gate passed")
	}

	if *baselinePath != "" {
		base, err := loadReport(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		base.Baseline = nil // never nest more than one level
		base.Speedup = nil
		rep.Baseline = &base
		rep.Speedup = make(map[string]float64, len(rep.Cases))
		byName := make(map[string]CaseResult, len(base.Cases))
		for _, c := range base.Cases {
			byName[c.Name] = c
		}
		for _, c := range rep.Cases {
			if b, ok := byName[c.Name]; ok && c.headline() > 0 {
				rep.Speedup[c.Name] = b.headline() / c.headline()
			}
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}
