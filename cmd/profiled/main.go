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
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"hwprof/internal/journal"
	"hwprof/internal/server"
)

func main() {
	var (
		listen       = flag.String("listen", ":9123", "TCP address to serve the wire protocol on")
		telemetry    = flag.String("telemetry", ":9124", "HTTP address for /metrics and /healthz; empty disables")
		queue        = flag.Int("queue", server.DefaultQueueDepth, "per-session queue depth in batches")
		maxSessions  = flag.Int("max-sessions", server.DefaultMaxSessions, "maximum concurrent sessions (live + parked)")
		maxShards    = flag.Int("max-shards", server.DefaultMaxShards, "clamp on per-session shard count")
		budget       = flag.Float64("budget", server.DefaultCostBudget, "admission cost budget in reference-session units")
		shed         = flag.Bool("shed", false, "shed (drop and count) batches when a session queue is full instead of blocking the stream")
		shedHigh     = flag.Int("shed-high", 0, "queue length that engages the shed gate (0: 3/4 of -queue)")
		shedLow      = flag.Int("shed-low", 0, "queue length that disengages the shed gate (0: 1/4 of -queue)")
		resumeGrace  = flag.Duration("resume-grace", server.DefaultResumeGrace, "how long a disconnected session stays resumable (negative disables resume)")
		resumeWindow = flag.Int("resume-window", server.DefaultResumeWindow, "profiles retained per session for resend on resume")
		readTimeout  = flag.Duration("read-timeout", server.DefaultReadTimeout, "per-read wire deadline (negative disables)")
		writeTimeout = flag.Duration("write-timeout", server.DefaultWriteTimeout, "per-write wire deadline (negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline before force-closing sessions")
		quiet        = flag.Bool("quiet", false, "suppress per-session log lines")
		cpuProfile   = flag.String("cpu-profile", "", "write a CPU profile of the daemon to this file, from start until the shutdown drain completes (go tool pprof)")

		publish       = flag.Bool("publish", false, "publish per-epoch machine profiles for aggd subscribers")
		machineID     = flag.String("machine-id", server.DefaultMachineID, "this machine's name in published epochs")
		epochLength   = flag.Uint64("epoch-length", server.DefaultEpochLength, "fleet events-per-epoch contract; sessions matching it publish")
		epochDeadline = flag.Duration("epoch-deadline", 0, "straggler deadline before an epoch closes partial (0: default; set well above reconnect time; negative disables)")
		epochWindow   = flag.Int("epoch-window", 0, "open epochs before force-close (0: default)")
		epochRetain   = flag.Int("epoch-retain", 0, "closed epochs retained for subscriber resubscription (0: default)")

		journalDir     = flag.String("journal-dir", "", "directory for per-session write-ahead journals; empty disables crash durability")
		journalSync    = flag.String("journal-sync", "interval", "journal durability barrier: none, interval, or batch")
		journalSegment = flag.Int64("journal-segment-bytes", 0, "journal segment rotation threshold in bytes (0: default)")
		tenantRate     = flag.Float64("tenant-rate", 0, "per-tenant session admission rate in sessions/s (0 disables)")
		tenantBurst    = flag.Float64("tenant-burst", 0, "per-tenant admission burst (0: ceil of -tenant-rate)")
		tenantBudget   = flag.Float64("tenant-budget", 0, "per-tenant slice of the cost budget in reference-session units (0 disables)")

		elastic        = flag.Bool("elastic", false, "run the per-session online controller: live resizes and the degradation ladder (requires resume; marked sessions are left alone)")
		elasticEngage  = flag.Int("elastic-engage", 0, "boundaries of sustained pressure before the controller acts (0: default)")
		elasticRelease = flag.Int("elastic-release", 0, "calm boundaries before the controller de-escalates (0: default)")
		elasticSettle  = flag.Int("elastic-settle", 0, "cooldown boundaries after every committed action (0: default)")
	)
	flag.Parse()
	sync, err := journal.ParseSync(*journalSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiled:", err)
		os.Exit(2)
	}
	if *journalDir != "" && *resumeGrace < 0 {
		fmt.Fprintln(os.Stderr, "profiled: -journal-dir requires resume (-resume-grace must not be negative): recovery re-parks sessions for their clients to resume")
		os.Exit(2)
	}
	cfg := server.Config{
		QueueDepth:    *queue,
		MaxSessions:   *maxSessions,
		MaxShards:     *maxShards,
		CostBudget:    *budget,
		Shed:          *shed,
		ShedHighWater: *shedHigh,
		ShedLowWater:  *shedLow,
		ResumeGrace:   *resumeGrace,
		ResumeWindow:  *resumeWindow,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
		Publish:       *publish,
		MachineID:     *machineID,
		EpochLength:   *epochLength,
		EpochDeadline: *epochDeadline,
		EpochWindow:   *epochWindow,
		EpochRetain:   *epochRetain,

		JournalDir:          *journalDir,
		JournalSync:         sync,
		JournalSegmentBytes: *journalSegment,
		TenantRate:          *tenantRate,
		TenantBurst:         *tenantBurst,
		TenantBudget:        *tenantBudget,

		Elastic:        *elastic,
		ElasticEngage:  *elasticEngage,
		ElasticRelease: *elasticRelease,
		ElasticSettle:  *elasticSettle,
	}
	if *elastic && *resumeGrace < 0 {
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

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", listen, err)
	}
	log.Printf("profiled: serving wire protocol on %s", ln.Addr())
	if cfg.Publish {
		log.Printf("profiled: publishing epochs as %q, epoch length %d", cfg.MachineID, cfg.EpochLength)
	}

	var tsrv *http.Server
	if telemetry != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Metrics().Registry.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		tsrv = &http.Server{Addr: telemetry, Handler: mux}
		tln, err := net.Listen("tcp", telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listen %s: %w", telemetry, err)
		}
		log.Printf("profiled: telemetry on http://%s/metrics", tln.Addr())
		go func() {
			if err := tsrv.Serve(tln); err != nil && err != http.ErrServerClosed {
				log.Printf("profiled: telemetry server: %v", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		log.Printf("profiled: %v: draining sessions (deadline %v)", s, drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	go func() {
		<-sig // a second signal force-closes immediately
		cancel()
	}()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("profiled: forced shutdown: %v", err)
	} else {
		log.Printf("profiled: drained cleanly")
	}
	if tsrv != nil {
		tsrv.Close()
	}
	if err := <-serveErr; err != nil {
		return err
	}
	return nil
}
