// Command loadgen is a load and chaos harness for the profiled daemon. A
// scenario file (internal/scenario) is its only stream description: the
// engine geometry, stream length, per-phase rates, tenant mixes and
// connection-fault windows all come from the file. loadgen dials N
// concurrent sessions, each streaming the scenario under its own seed
// (session i uses the scenario seed + i, so the daemon sees distinct
// streams of the same shape), and every fault window arms a hangup or a
// one-byte corruption on the session's live connection when its stream
// crosses the window — exercising the daemon's admission control, shed
// gate, and resume path under pressure. Fault windows never change stream
// content, only transport behavior. It reports per-session outcomes,
// aggregate throughput, client-observed interval-latency percentiles, shed
// rates, and reconnect counts; with -metrics it also scrapes the daemon's
// Prometheus endpoint and echoes the overload counters.
//
// Usage:
//
//	loadgen -addr localhost:9123 -sessions 4 -scenario pack.scn
//	loadgen -addr localhost:9123 -sessions 4 -scenario chaos.scn -verify \
//	    -metrics http://localhost:9124/metrics
//	loadgen -tree-daemons m1:9123,m2:9123,m3:9123 -tree-root localhost:9323 \
//	    -scenario fleet.scn
//	loadgen -kill-daemon-at 25000 -daemon-bin ./profiled -sessions 4 \
//	    -scenario crash.scn -daemon-journal-sync batch -daemon-telemetry :9124
//
// With -verify, every session also tees its accepted stream into memory
// and mirrors it through local engines, requiring the daemon's delivered
// profiles bit-identical. Against an elastic daemon the session's notice
// trail splits the mirror: each geometry-changing notice (live resize,
// ladder coarsen/shrink/restore) cold-starts a fresh local engine at the
// announced shape and stream boundary — the park-and-restage contract,
// checked end to end from the client side. Sessions whose profiles are
// lossy (shed policy) or whose geometry changed invisibly (a daemon crash
// lost the notice) are reported and skipped, not failed.
//
// Sessions refused admission are reported and tolerated (an overloaded
// daemon refusing work is correct behavior); any other session failure
// makes loadgen exit non-zero.
//
// With -kill-daemon-at, loadgen owns the daemon's lifecycle instead of
// dialing an external one: it spawns -daemon-bin listening on -addr with a
// write-ahead journal, streams every session to the given event offset,
// SIGKILLs the daemon mid-stream, restarts it on the same address — the
// restart replays the journals and re-parks the sessions — and requires
// every session to reconnect and verify bit-identical (-verify is implied,
// and a skipped verify fails the session). With -daemon-telemetry set it
// also scrapes the restarted daemon and asserts the journal recovery
// counters are clean.
//
// With -tree-daemons, loadgen instead drives an aggregation tree: it opens
// one marked session per publishing daemon, fans the scenario's stream
// (under the scenario's own seed) out across them by shard route as one
// union stream — so the fleet behaves as one sharded engine, and the
// scenario's shard count must equal the daemon count — places an epoch
// mark on every session at each scenario interval boundary, subscribes to
// the -tree-root aggregator, and asserts that every merged fleet epoch is
// bit-identical to a local single-engine run over the union stream. Each
// fault window arms on every daemon link, so a hangup mid-run proves
// bit-identity survives daemon links dying and resuming.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hwprof/internal/scenario"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:9123", "profiled daemon address (host:port)")
		metrics = flag.String("metrics", "", "daemon Prometheus endpoint to scrape after the run (e.g. http://localhost:9124/metrics)")

		sessions = flag.Int("sessions", 4, "concurrent sessions to dial")
		scnPath  = flag.String("scenario", "", "scenario file streamed by every session (required): engine geometry, stream length, phase rates and fault windows all come from it; session i streams it under the scenario seed + i")

		backoff  = flag.Duration("backoff-base", 20*time.Millisecond, "reconnect backoff base delay")
		attempts = flag.Int("max-attempts", 10, "failures per outage before a session gives up, the break included (-1: unlimited)")

		verify = flag.Bool("verify", false, "mirror every session's accepted stream through local engines and require the daemon's profiles bit-identical; resize/degrade notices split the mirror into cold-started segments, so this holds against an elastic daemon too (lossy shed-policy sessions and geometry changes hidden by a daemon crash are reported and skipped)")

		treeDaemons = flag.String("tree-daemons", "", "comma-separated profiled -publish daemons; enables tree mode: one marked session per daemon, the scenario's stream fanned out by shard route (the scenario's shards must equal the daemon count)")
		treeRoot    = flag.String("tree-root", "", "root aggregator to subscribe to for merged fleet epochs (tree mode)")

		killAt          = flag.Uint64("kill-daemon-at", 0, "crash mode: per-session event offset at which the spawned daemon is SIGKILLed and restarted (0: off); implies -verify")
		daemonBin       = flag.String("daemon-bin", "profiled", "crash mode: profiled binary to spawn on -addr")
		daemonJournal   = flag.String("daemon-journal-dir", "", "crash mode: journal directory handed to the spawned daemon (empty: a temp dir, removed after the run)")
		daemonSync      = flag.String("daemon-journal-sync", "batch", "crash mode: -journal-sync handed to the spawned daemon")
		daemonTelemetry = flag.String("daemon-telemetry", "", "crash mode: -telemetry address handed to the spawned daemon (empty: disabled)")
	)
	flag.Parse()

	if *scnPath == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	text, err := os.ReadFile(*scnPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	sc, err := scenario.Parse(string(text))
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	g := &generator{
		addr: *addr, sessions: *sessions, scn: sc,
		backoff: *backoff, attempts: *attempts,
		verify: *verify,
	}
	switch {
	case *killAt > 0:
		if *killAt >= sc.TotalEvents() {
			fmt.Fprintf(os.Stderr, "loadgen: -kill-daemon-at %d must land mid-stream (< %d events per session)\n", *killAt, sc.TotalEvents())
			os.Exit(1)
		}
		dir, tmp := *daemonJournal, false
		if dir == "" {
			if dir, err = os.MkdirTemp("", "loadgen-journal-"); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				os.Exit(1)
			}
			tmp = true
		}
		metricsURL := *metrics
		if metricsURL == "" && *daemonTelemetry != "" {
			hostport := *daemonTelemetry
			if strings.HasPrefix(hostport, ":") {
				hostport = "localhost" + hostport
			}
			metricsURL = "http://" + hostport + "/metrics"
		}
		d := &daemonProc{
			bin: *daemonBin, listen: *addr, telemetry: *daemonTelemetry,
			journalDir: dir, journalSync: *daemonSync,
		}
		err = g.crash(d, *killAt, metricsURL)
		if tmp {
			os.RemoveAll(dir)
		}
	case *treeDaemons != "":
		var daemons []string
		for _, d := range strings.Split(*treeDaemons, ",") {
			if d = strings.TrimSpace(d); d != "" {
				daemons = append(daemons, d)
			}
		}
		if *treeRoot == "" {
			fmt.Fprintln(os.Stderr, "loadgen: tree mode needs -tree-root")
			os.Exit(1)
		}
		err = g.tree(daemons, *treeRoot)
		if *metrics != "" {
			echoMetrics(*metrics)
		}
	default:
		failed := g.run()
		if *metrics != "" {
			echoMetrics(*metrics)
		}
		if failed > 0 {
			err = fmt.Errorf("%d session(s) failed", failed)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// scrapeMetrics fetches a Prometheus text endpoint into series → value,
// where a series is the metric name with its labels.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			vals[line[:i]] = v
		}
	}
	return vals, nil
}

// echoMetrics scrapes the daemon's Prometheus endpoint and echoes the
// overload-relevant series so a chaos run's server-side decisions are
// visible next to the client-side report.
func echoMetrics(url string) {
	vals, err := scrapeMetrics(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: scraping %s: %v\n", url, err)
		return
	}
	series := make([]string, 0, len(vals))
	for s := range vals {
		series = append(series, s)
	}
	sort.Strings(series)
	fmt.Printf("\ndaemon overload counters (%s):\n", url)
	for _, s := range series {
		for _, prefix := range []string{
			"hwprof_admission_", "hwprof_shed_", "hwprof_events_shed",
			"hwprof_resume", "hwprof_tombstones_", "hwprof_sessions_",
			"hwprof_frames_corrupt", "hwprof_journal_",
			"hwprof_elastic_", "hwprof_ladder_", "hwprof_tenant_",
		} {
			if strings.HasPrefix(s, prefix) {
				fmt.Printf("  %s %s\n", s, strconv.FormatFloat(vals[s], 'f', -1, 64))
				break
			}
		}
	}
}
