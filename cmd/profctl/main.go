// Command profctl is the profiling daemon's client: it opens a session
// with a profiled instance, streams a tuple stream to it (a trace file, a
// synthetic workload, or an instrumented VM program), and prints the
// interval profiles the daemon returns.
//
// Usage:
//
//	profctl -addr localhost:9123 -workload gcc -intervals 10
//	profctl -addr localhost:9123 -trace gcc.trace -tables 4 -shards 4
//	profctl -addr localhost:9323 -subscribe -epochs 10
//	profctl -export-journal /var/lib/profiled -session 3 -o sess3.rec
//
// On a block-policy daemon the printed profiles are bit-identical to a
// local `profile` run over the same flags and seed.
//
// With -subscribe, profctl instead attaches to an epoch publisher — the
// root aggd of a fleet tree, or a profiled -publish daemon — and prints
// its merged fleet epochs. A partial epoch (children missing after the
// straggler deadline) makes profctl exit non-zero naming them, the way
// shed events do in streaming mode.
//
// With -export-journal, profctl reads a session's write-ahead journal
// (read-only; a live or crashed daemon's directory is safe to export
// from) and writes it as a scenario recording: the exact accepted event
// stream as an embedded trace plus the digests of the profiles the daemon
// served. `scenario replay` then re-runs the engine over the stream and
// proves the served profiles bit-identical — an offline audit of a
// production session.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"hwprof"
)

func main() {
	var (
		addr = flag.String("addr", "localhost:9123", "profiled daemon address (host:port)")

		traceFile = flag.String("trace", "", "read tuples from this trace file")
		workload  = flag.String("workload", "", "generate tuples from this synthetic benchmark analog")
		program   = flag.String("program", "", "generate tuples from this VM program (looped)")
		kindName  = flag.String("kind", "value", "tuple kind for -workload/-program: value or edge")
		seed      = flag.Uint64("seed", 1, "workload seed")

		interval  = flag.Uint64("interval", 10_000, "profile interval length in events")
		threshold = flag.Float64("threshold", 1, "candidate threshold in percent of interval length")
		entries   = flag.Int("entries", 2048, "total hash-table counters")
		tables    = flag.Int("tables", 4, "number of hash tables")
		conserv   = flag.Bool("conservative", true, "use conservative update (C1)")
		reset     = flag.Bool("reset", false, "reset counters on promotion (R1)")
		retain    = flag.Bool("retain", true, "retain candidates across intervals (P1)")

		intervals = flag.Int("intervals", 5, "number of profile intervals to stream")
		top       = flag.Int("top", 10, "candidates to print per interval")

		shards = flag.Int("shards", 1, "shards the daemon should run for this session")
		batch  = flag.Int("batch", 0, "tuples per batch frame (default 512)")

		subscribe  = flag.Bool("subscribe", false, "subscribe to -addr as an epoch publisher (aggd or profiled -publish) instead of streaming events to it")
		epochs     = flag.Int("epochs", 0, "epochs to print under -subscribe (0: -intervals)")
		startEpoch = flag.Uint64("start-epoch", 0, "first epoch wanted under -subscribe")

		exportJournal = flag.String("export-journal", "", "export a session from this profiled journal directory as a scenario recording instead of streaming")
		exportSession = flag.Uint64("session", 0, "session id to export under -export-journal (0: the directory's only session)")
		exportOut     = flag.String("o", "", "output recording file for -export-journal (default session-<id>.rec)")
	)
	flag.Parse()
	if *exportJournal != "" {
		if err := runExport(*exportJournal, *exportSession, *exportOut); err != nil {
			fmt.Fprintln(os.Stderr, "profctl:", err)
			os.Exit(1)
		}
		return
	}
	if *subscribe {
		n := *epochs
		if n == 0 {
			n = *intervals
		}
		if err := runSubscribe(*addr, *interval, *startEpoch, n, *top); err != nil {
			fmt.Fprintln(os.Stderr, "profctl:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*addr, *traceFile, *workload, *program, *kindName, *seed,
		*interval, *threshold, *entries, *tables, *conserv, *reset, *retain,
		*intervals, *top, *shards, *batch); err != nil {
		fmt.Fprintln(os.Stderr, "profctl:", err)
		os.Exit(1)
	}
}

// runSubscribe attaches to an epoch publisher — the root of an aggregation
// tree, usually — and prints its merged fleet epochs. Partial epochs are
// worth a non-zero exit, mirroring the lossy-shed exit of the streaming
// mode: the missing children are printed, and scripts must not treat the
// fleet profile as complete.
func runSubscribe(addr string, epochLength, start uint64, n, top int) error {
	sub, err := hwprof.Subscribe(context.Background(), addr,
		hwprof.WithIntervalLength(epochLength), hwprof.WithStartEpoch(start))
	if err != nil {
		return err
	}
	defer sub.Close()

	missing := make(map[string]struct{})
	partials := 0
	seen := 0
	for ep := range sub.C {
		fmt.Printf("\nepoch %d from %q (%d children):\n", ep.Epoch, ep.Source, ep.Children)
		printTop(ep.Counts, 0, top)
		if ep.Partial {
			partials++
			fmt.Printf("  PARTIAL: missing %v\n", ep.Missing)
			for _, name := range ep.Missing {
				missing[name] = struct{}{}
			}
		}
		if seen++; seen >= n {
			break
		}
	}
	sub.Close()
	if err := sub.Err(); err != nil && seen < n {
		return err
	}
	if gaps := sub.Gaps(); gaps > 0 {
		fmt.Fprintf(os.Stderr, "profctl: %d epoch(s) lost beyond the publisher's retention\n", gaps)
	}
	if partials > 0 {
		names := make([]string, 0, len(missing))
		for name := range missing {
			names = append(names, name)
		}
		sort.Strings(names)
		return fmt.Errorf("%d of %d epoch(s) partial; missing children: %v", partials, seen, names)
	}
	return nil
}

func run(addr, traceFile, workload, program, kindName string, seed, interval uint64,
	threshold float64, entries, tables int, conserv, reset, retain bool,
	intervals, top, shards, batch int) error {

	var kind hwprof.Kind
	switch kindName {
	case "value":
		kind = hwprof.KindValue
	case "edge":
		kind = hwprof.KindEdge
	default:
		return fmt.Errorf("unknown kind %q", kindName)
	}

	var src hwprof.Source
	switch {
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := hwprof.OpenTrace(f)
		if err != nil {
			return err
		}
		src = r
	case workload != "":
		g, err := hwprof.NewWorkload(workload, kind, seed)
		if err != nil {
			return err
		}
		src = g
	case program != "":
		p, err := hwprof.NewProgramSource(program, kind, true)
		if err != nil {
			return err
		}
		src = p
	default:
		return fmt.Errorf("one of -trace, -workload or -program is required")
	}

	cfg := hwprof.Config{
		IntervalLength:     interval,
		ThresholdPercent:   threshold,
		TotalEntries:       entries,
		NumTables:          tables,
		CounterWidth:       24,
		ConservativeUpdate: conserv,
		ResetOnPromote:     reset,
		Retain:             retain,
		Seed:               seed + 7,
	}
	sess, err := hwprof.Connect(context.Background(), addr,
		hwprof.WithConfig(cfg), hwprof.WithShards(shards), hwprof.WithBatchSize(batch))
	if err != nil {
		// Surface the daemon's admission decision verbatim — "admission
		// refused: ..." names the cost or limit that was exceeded.
		return err
	}
	fmt.Printf("session %d at %s: %v, policy %s\n",
		sess.ID(), addr, cfg, map[bool]string{false: "block", true: "shed"}[sess.Shedding()])

	thresh := cfg.ThresholdCount()
	n, err := sess.Run(hwprof.Limit(src, interval*uint64(intervals)),
		func(i int, counts map[hwprof.Tuple]uint64) {
			fmt.Printf("\ninterval %d:\n", i)
			printTop(counts, thresh, top)
		})
	if err != nil {
		return err
	}
	if n < intervals {
		fmt.Printf("\nstream ended after %d of %d intervals\n", n, intervals)
	}
	if r := sess.Reconnects(); r > 0 {
		fmt.Fprintf(os.Stderr, "profctl: connection dropped %d time(s); session resumed, profiles are complete\n", r)
	}
	if shed := sess.ShedEvents(); shed > 0 {
		// Lossy profiles are worth a non-zero exit: scripts comparing
		// against a local run must not treat them as exact.
		return fmt.Errorf("session shed %d events under daemon overload; profiles are lossy", shed)
	}
	return nil
}

// printTop lists the interval's hottest captured candidates.
func printTop(counts map[hwprof.Tuple]uint64, thresh uint64, top int) {
	type entry struct {
		t hwprof.Tuple
		c uint64
	}
	var cands []entry
	for t, c := range counts {
		if c >= thresh {
			cands = append(cands, entry{t, c})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].c != cands[j].c {
			return cands[i].c > cands[j].c
		}
		if cands[i].t.A != cands[j].t.A {
			return cands[i].t.A < cands[j].t.A
		}
		return cands[i].t.B < cands[j].t.B
	})
	if len(cands) > top {
		cands = cands[:top]
	}
	for _, e := range cands {
		fmt.Printf("  <%#x, %#x>  ×%d\n", e.t.A, e.t.B, e.c)
	}
}
