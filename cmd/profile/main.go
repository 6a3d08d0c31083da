// Command profile runs a profiler configuration over a tuple stream (a
// trace file, a synthetic workload, or an instrumented VM program) and
// prints the per-interval candidates it catches. By default it profiles on
// a local engine and, when the stream is replayable, reports the error
// against a perfect profiler. With -addr it opens a session with a
// profiled daemon, streams the same source to it, and prints the interval
// profiles the daemon returns.
//
// Usage:
//
//	profile -workload gcc -intervals 10
//	profile -trace gcc.trace -tables 4 -conservative
//	profile -program interp -kind edge -interval 10000 -threshold 1
//	profile -workload gcc -shards 4 -exact=false -reuse-profiles   # concurrent, throughput mode
//	profile -addr localhost:9123 -workload gcc -shards 4           # on a daemon's engine
//
// Both modes build the same engine, the one hwprof.Profile and
// hwprof.Connect build: the configuration's storage split over -shards
// shards. So on a block-policy daemon the interval lines of a -addr run
// are bit-identical to those of a local run with -exact=false and the same
// flags. -exact and -reuse-profiles act only locally. A remote session
// that shed events under daemon overload exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hwprof"
	"hwprof/cmd/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		// Trace faults get a classified message: whatever profiles were
		// reported before the fault are real, but the stream they came from
		// is damaged and the run must fail loudly rather than look complete.
		switch {
		case errors.Is(err, hwprof.ErrTraceTruncated):
			fmt.Fprintf(os.Stderr, "profile: input trace is truncated (cut-off file or interrupted write): %v\n", err)
		case errors.Is(err, hwprof.ErrTraceCorrupt):
			fmt.Fprintf(os.Stderr, "profile: input trace is corrupt (checksum or framing mismatch): %v\n", err)
		default:
			fmt.Fprintln(os.Stderr, "profile:", err)
		}
		os.Exit(1)
	}
}

// run parses args, profiles the stream they describe and prints the
// interval profiles to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var (
		addr = fs.String("addr", "", "profile on the profiled daemon at this host:port instead of a local engine")

		traceFile = fs.String("trace", "", "read tuples from this trace file")
		workload  = fs.String("workload", "", "generate tuples from this synthetic benchmark analog")
		program   = fs.String("program", "", "generate tuples from this VM program (looped)")
		kindName  = fs.String("kind", "value", "tuple kind for -workload/-program: value or edge")
		seed      = fs.Uint64("seed", 1, "workload seed")

		interval  = fs.Uint64("interval", 10_000, "profile interval length in events")
		threshold = fs.Float64("threshold", 1, "candidate threshold in percent of interval length")
		entries   = fs.Int("entries", 2048, "total hash-table counters")
		tables    = fs.Int("tables", 4, "number of hash tables")
		conserv   = fs.Bool("conservative", true, "use conservative update (C1)")
		reset     = fs.Bool("reset", false, "reset counters on promotion (R1)")
		retain    = fs.Bool("retain", true, "retain candidates across intervals (P1)")

		intervals = fs.Int("intervals", 5, "number of profile intervals to run")
		top       = fs.Int("top", 10, "candidates to print per interval")

		shards = fs.Int("shards", 1, "profile concurrently over this many shards (storage is split across them)")
		batch  = fs.Int("batch", 0, "tuple batch size of the streaming driver or of the frames sent to -addr (default 512)")
		exact  = fs.Bool("exact", true, "run the perfect profiler alongside and report per-interval error (local only)")
		reuse  = fs.Bool("reuse-profiles", false, "recycle interval-profile maps (allocation-free boundaries; maps are invalid after each interval is printed; local only)")
	)
	fs.Parse(args)

	var kind hwprof.Kind
	switch *kindName {
	case "value":
		kind = hwprof.KindValue
	case "edge":
		kind = hwprof.KindEdge
	default:
		return fmt.Errorf("unknown kind %q", *kindName)
	}

	var src hwprof.Source
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := hwprof.OpenTrace(f)
		if err != nil {
			return err
		}
		src = r
	case *workload != "":
		g, err := hwprof.NewWorkload(*workload, kind, *seed)
		if err != nil {
			return err
		}
		src = g
	case *program != "":
		p, err := hwprof.NewProgramSource(*program, kind, true)
		if err != nil {
			return err
		}
		src = p
	default:
		return fmt.Errorf("one of -trace, -workload or -program is required")
	}

	cfg := hwprof.Config{
		IntervalLength:     *interval,
		ThresholdPercent:   *threshold,
		TotalEntries:       *entries,
		NumTables:          *tables,
		CounterWidth:       24,
		ConservativeUpdate: *conserv,
		ResetOnPromote:     *reset,
		Retain:             *retain,
		Seed:               *seed + 7,
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	thresh := cfg.ThresholdCount()
	printInterval := func(i int, counts map[hwprof.Tuple]uint64) {
		fmt.Fprintf(out, "\ninterval %d:\n", i)
		cli.PrintTop(out, counts, thresh, *top)
	}
	stream := hwprof.Limit(src, *interval*uint64(*intervals))
	// One engine construction for both modes: the configuration split over
	// -shards shards, built here by Profile or at the daemon for Connect.
	opts := []hwprof.Option{hwprof.WithConfig(cfg), hwprof.WithShards(*shards), hwprof.WithBatchSize(*batch)}

	var (
		sess *hwprof.RemoteSession
		n    int
		err  error
	)
	if *addr == "" {
		var bytes int
		if bytes, err = hwprof.StorageBytes(cfg); err != nil {
			return err
		}
		fmt.Fprintf(out, "configuration %v, %d shard(s), storage %d bytes, threshold count %d\n",
			cfg, *shards, bytes, thresh)
		// -reuse-profiles is safe here because PrintTop finishes with each
		// map inside the callback; nothing retains an interval's profile
		// after it.
		opts = append(opts, hwprof.OnInterval(func(i int, perfect, hardware map[hwprof.Tuple]uint64) {
			if perfect == nil {
				printInterval(i, hardware)
				return
			}
			iv := hwprof.EvalInterval(perfect, hardware, thresh)
			fmt.Fprintf(out, "\ninterval %d: error %.2f%% (FP %.2f / FN %.2f / NP %.2f / NN %.2f), %d perfect candidates\n",
				i, iv.Total*100, iv.FalsePos*100, iv.FalseNeg*100,
				iv.NeutralPos*100, iv.NeutralNeg*100, iv.PerfectCandidates)
			cli.PrintTop(out, hardware, thresh, *top)
		}))
		if !*exact {
			opts = append(opts, hwprof.WithoutOracle())
		}
		if *reuse {
			opts = append(opts, hwprof.WithProfileReuse())
		}
		n, err = hwprof.Profile(context.Background(), stream, opts...)
	} else {
		// A refusal surfaces the daemon's admission decision verbatim:
		// "admission refused: ..." names the cost or limit exceeded.
		if sess, err = hwprof.Connect(context.Background(), *addr, opts...); err != nil {
			return err
		}
		fmt.Fprintf(out, "session %d at %s: %v, policy %s\n",
			sess.ID(), *addr, cfg, map[bool]string{false: "block", true: "shed"}[sess.Shedding()])
		n, err = sess.Run(stream, printInterval)
	}
	if err != nil {
		return err
	}
	if n < *intervals {
		fmt.Fprintf(out, "\nstream ended after %d of %d intervals\n", n, *intervals)
	}
	if sess == nil {
		return nil
	}
	if r := sess.Reconnects(); r > 0 {
		fmt.Fprintf(os.Stderr, "profile: connection dropped %d time(s); session resumed, profiles are complete\n", r)
	}
	if shed := sess.ShedEvents(); shed > 0 {
		// Lossy profiles are worth a non-zero exit: scripts comparing
		// against a local run must not treat them as exact.
		return fmt.Errorf("session shed %d events under daemon overload; profiles are lossy", shed)
	}
	return nil
}
