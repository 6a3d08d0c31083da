// Command profctl reads what the serving tier publishes and keeps: it
// subscribes to an epoch publisher and prints the merged fleet epochs, or
// exports a session's write-ahead journal as a scenario recording. To
// stream events to a profiled daemon, run `profile -addr`.
//
// Usage:
//
//	profctl -addr localhost:9323 -epochs 10
//	profctl -export-journal /var/lib/profiled -session 3 -o sess3.rec
//
// By default profctl subscribes to the epoch publisher at -addr — the root
// aggd of a fleet tree, or a profiled -publish daemon — and prints its
// merged fleet epochs. A partial epoch (children missing after the
// straggler deadline) makes profctl exit non-zero naming them, the way
// shed events do for `profile -addr`.
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
	"hwprof/cmd/internal/cli"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:9123", "epoch publisher address (host:port): an aggd, or a profiled -publish daemon")
		interval   = flag.Uint64("interval", 10_000, "epoch length in events, validated against the publisher's")
		epochs     = flag.Int("epochs", 5, "epochs to print")
		startEpoch = flag.Uint64("start-epoch", 0, "first epoch wanted")
		top        = flag.Int("top", 10, "tuples to print per epoch")

		exportJournal = flag.String("export-journal", "", "export a session from this profiled journal directory as a scenario recording")
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
	if err := runSubscribe(*addr, *interval, *startEpoch, *epochs, *top); err != nil {
		fmt.Fprintln(os.Stderr, "profctl:", err)
		os.Exit(1)
	}
}

// runSubscribe attaches to an epoch publisher — the root of an aggregation
// tree, usually — and prints its merged fleet epochs. Partial epochs are
// worth a non-zero exit, mirroring the lossy-shed exit of `profile -addr`:
// the missing children are printed, and scripts must not treat the fleet
// profile as complete.
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
		cli.PrintTop(os.Stdout, ep.Counts, 0, top)
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
