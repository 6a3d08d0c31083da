// Command profiled is the profiling daemon: it serves the hwprof wire
// protocol over TCP, running one sharded profiling engine per client
// session and returning interval profiles as the stream crosses interval
// boundaries, with telemetry exposed over HTTP in Prometheus text form.
//
// Usage:
//
//	profiled -listen :9123 -telemetry :9124
//	profiled -listen :9123 -shed -queue 32 -max-sessions 512
//	profiled -listen :9123 -budget 64 -shed -shed-high 24 -shed-low 8 -resume-grace 1m
//	profiled -listen :9123 -publish -machine-id m1 -epoch-length 10000
//	profiled -listen :9123 -journal-dir /var/lib/profiled -journal-sync interval
//	profiled -listen :9123 -elastic -shed -tenant-budget 8
//
// With -journal-dir every session mirrors its accepted batches and
// interval boundaries into a per-session write-ahead journal; a restarted
// daemon replays the journals, re-parks the sessions, and reconnecting
// clients resume bit-identically across the crash. -journal-sync picks the
// durability barrier (none, interval, or batch); -tenant-rate bounds how
// fast one remote host may open new sessions.
//
// With -publish the daemon additionally merges the interval profiles of
// epoch-aligned sessions (marked sessions, or sessions whose interval
// length equals -epoch-length) into per-epoch machine profiles, and serves
// them to aggd subscribers over the same wire port.
//
// Admission is budgeted by estimated engine cost (-budget, in units of a
// reference 10k-interval one-shard 2048-entry session); -tenant-budget
// additionally slices that budget per remote host. Under the -shed policy a
// hysteresis gate engages at -shed-high queued batches and disengages at
// -shed-low. Disconnected sessions stay resumable for -resume-grace, so
// clients reconnect and continue bit-identically.
//
// With -elastic each unmarked session (its client does not place the
// interval boundaries) runs an online controller that resizes its engine
// live — interval length, table size, shard count — under queue and shed
// pressure, descending an explicit degradation ladder (shed → coarsen →
// shrink → park) and restoring when calm. Every resize happens at an
// interval boundary through a journaled park-and-restage cycle, so the
// profile stream stays bit-identical to a cold start at that offset.
//
// SIGINT/SIGTERM drain gracefully: every session's queued batches are
// profiled, its final partial profile and goodbye are sent, and the process
// exits 0. A second signal — or the -drain-timeout deadline — force-closes
// whatever remains.
//
// With -cpu-profile the daemon writes a CPU profile of itself, from start
// (journal recovery included) until the shutdown drain completes:
//
//	profiled -listen :9123 -cpu-profile cpu.pb.gz
//	go tool pprof -top cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime/pprof"
	"time"

	"hwprof/cmd/internal/cli"
	"hwprof/internal/journal"
	"hwprof/internal/server"
)

func main() {
	var (
		cfg          server.Config
		listen       = flag.String("listen", ":9123", "TCP address to serve the wire protocol on")
		telemetry    = flag.String("telemetry", ":9124", "HTTP address for /metrics and /healthz; empty disables")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline before force-closing sessions")
		quiet        = flag.Bool("quiet", false, "suppress per-session log lines")
		cpuProfile   = flag.String("cpu-profile", "", "write a CPU profile of the daemon to this file, from start until the shutdown drain completes (go tool pprof)")
	)
	flag.IntVar(&cfg.QueueDepth, "queue", server.DefaultQueueDepth, "per-session queue depth in batches")
	flag.IntVar(&cfg.MaxSessions, "max-sessions", server.DefaultMaxSessions, "maximum concurrent sessions (live + parked)")
	flag.IntVar(&cfg.MaxShards, "max-shards", server.DefaultMaxShards, "clamp on per-session shard count")
	flag.Float64Var(&cfg.CostBudget, "budget", server.DefaultCostBudget, "admission cost budget in reference-session units")
	flag.BoolVar(&cfg.Shed, "shed", false, "shed (drop and count) batches when a session queue is full instead of blocking the stream")
	flag.IntVar(&cfg.ShedHighWater, "shed-high", 0, "queue length that engages the shed gate (0: 3/4 of -queue)")
	flag.IntVar(&cfg.ShedLowWater, "shed-low", 0, "queue length that disengages the shed gate (0: 1/4 of -queue)")
	flag.DurationVar(&cfg.ResumeGrace, "resume-grace", server.DefaultResumeGrace, "how long a disconnected session stays resumable (negative disables resume)")
	flag.IntVar(&cfg.ResumeWindow, "resume-window", server.DefaultResumeWindow, "profiles retained per session for resend on resume")
	flag.DurationVar(&cfg.ReadTimeout, "read-timeout", server.DefaultReadTimeout, "per-read wire deadline (negative disables)")
	flag.DurationVar(&cfg.WriteTimeout, "write-timeout", server.DefaultWriteTimeout, "per-write wire deadline (negative disables)")

	flag.BoolVar(&cfg.Publish, "publish", false, "publish per-epoch machine profiles for aggd subscribers")
	flag.StringVar(&cfg.MachineID, "machine-id", server.DefaultMachineID, "this machine's name in published epochs")
	flag.Uint64Var(&cfg.EpochLength, "epoch-length", server.DefaultEpochLength, "fleet events-per-epoch contract; sessions matching it publish")
	flag.DurationVar(&cfg.EpochDeadline, "epoch-deadline", 0, "straggler deadline before an epoch closes partial (0: default; set well above reconnect time; negative disables)")

	flag.StringVar(&cfg.JournalDir, "journal-dir", "", "directory for per-session write-ahead journals; empty disables crash durability")
	flag.TextVar(&cfg.JournalSync, "journal-sync", journal.SyncInterval, "journal durability barrier: none, interval, or batch")
	flag.Float64Var(&cfg.TenantRate, "tenant-rate", 0, "per-tenant session admission rate in sessions/s (0 disables)")
	flag.Float64Var(&cfg.TenantBurst, "tenant-burst", 0, "per-tenant admission burst (0: ceil of -tenant-rate)")
	flag.Float64Var(&cfg.TenantBudget, "tenant-budget", 0, "per-tenant slice of the cost budget in reference-session units (0 disables)")

	flag.BoolVar(&cfg.Elastic, "elastic", false, "run the per-session online controller: live resizes and the degradation ladder (requires resume; marked sessions are left alone)")
	flag.IntVar(&cfg.ElasticEngage, "elastic-engage", 0, "boundaries of sustained pressure before the controller acts (0: default)")
	flag.IntVar(&cfg.ElasticRelease, "elastic-release", 0, "calm boundaries before the controller de-escalates (0: default)")
	flag.IntVar(&cfg.ElasticSettle, "elastic-settle", 0, "cooldown boundaries after every committed action (0: default)")
	flag.Parse()
	if cfg.JournalDir != "" && cfg.ResumeGrace < 0 {
		fmt.Fprintln(os.Stderr, "profiled: -journal-dir requires resume (-resume-grace must not be negative): recovery re-parks sessions for their clients to resume")
		os.Exit(2)
	}
	if cfg.Elastic && cfg.ResumeGrace < 0 {
		fmt.Fprintln(os.Stderr, "profiled: -elastic requires resume (-resume-grace must not be negative): ladder rung 4 parks sessions for their clients to resume")
		os.Exit(2)
	}
	stopProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiled:", err)
		os.Exit(1)
	}
	err = run(*listen, *telemetry, cfg, *drainTimeout, *quiet)
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiled:", err)
		os.Exit(1)
	}
}

// startCPUProfile starts a CPU profile written to path and returns the
// function that stops it and closes the file. An empty path profiles
// nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

func run(listen, telemetry string, cfg server.Config, drainTimeout time.Duration, quiet bool) error {
	if !quiet {
		cfg.Logf = log.Printf
	}
	srv := server.New(cfg)
	if cfg.JournalDir != "" {
		// Recovery runs before the listener opens: reconnecting clients
		// must find their sessions already re-parked.
		n, err := srv.Recover()
		if err != nil {
			return fmt.Errorf("recovering journals: %w", err)
		}
		log.Printf("profiled: journaling to %s (sync %v), %d session(s) recovered", cfg.JournalDir, cfg.JournalSync, n)
	}
	return cli.Process{
		Name:         "profiled",
		Listen:       listen,
		Telemetry:    telemetry,
		Metrics:      srv.Metrics().Registry.Handler(),
		DrainTimeout: drainTimeout,
		Listening: func(addr net.Addr) {
			log.Printf("profiled: serving wire protocol on %s", addr)
			if cfg.Publish {
				log.Printf("profiled: publishing epochs as %q, epoch length %d", cfg.MachineID, cfg.EpochLength)
			}
		},
		Draining: "draining sessions",
		Drained:  "drained cleanly",
	}.Run(srv)
}
