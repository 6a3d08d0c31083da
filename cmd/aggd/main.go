// Command aggd is the fleet aggregation tier: it subscribes to the
// per-epoch profiles of N children — profiled daemons run with -publish,
// or other aggd instances — merges each epoch across the fleet under the
// watermark protocol, and serves the merged epochs to its own subscribers
// over the same wire Subscribe surface. Trees compose: point an aggd at
// other aggds for a multi-level fleet, and profctl -subscribe at the root.
//
// Usage:
//
//	aggd -listen :9223 -children m1:9123,m2:9123,m3:9123 -epoch-length 10000
//	aggd -listen :9323 -children mid1:9223,mid2:9223 -source root
//
// Epochs are aligned by interval index, never wall clock. An epoch closes
// when every child has reported it, or when the -deadline straggler
// deadline fires — closing it partial, with the missing children named in
// a typed marker that propagates to the root. Child links reconnect under
// jittered exponential backoff forever: a down child surfaces as missing
// epochs, not a dead link.
//
// SIGINT/SIGTERM shut down gracefully; telemetry (per-child lag,
// reconnects, watermark, partial counts) is served over HTTP in
// Prometheus text form.
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
	"strings"
	"syscall"
	"time"

	"hwprof/internal/agg"
)

func main() {
	var (
		cfg          agg.Config
		listen       = flag.String("listen", ":9223", "TCP address to serve merged epochs on")
		telemetry    = flag.String("telemetry", ":9224", "HTTP address for /metrics and /healthz; empty disables")
		children     = flag.String("children", "", "comma-separated child publishers (host:port each): profiled -publish daemons or other aggds")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline before force-closing subscribers")
		quiet        = flag.Bool("quiet", false, "suppress lifecycle log lines")
	)
	flag.StringVar(&cfg.Source, "source", "aggd", "this aggregator's name in the epochs it emits")
	flag.Uint64Var(&cfg.EpochLength, "epoch-length", 10_000, "fleet events-per-epoch contract, validated against every child")
	flag.DurationVar(&cfg.Deadline, "deadline", 0, "straggler deadline before an epoch closes partial (0: default; set well above child reconnect time; negative disables)")
	flag.IntVar(&cfg.Window, "window", 0, "open epochs before force-close (0: default)")
	flag.IntVar(&cfg.Retain, "retain", 0, "closed epochs retained for subscriber resubscription (0: default)")
	flag.DurationVar(&cfg.DialTimeout, "dial-timeout", 0, "per-connect deadline on child links (0: default)")
	flag.DurationVar(&cfg.BackoffBase, "backoff", 0, "first child reconnect delay, doubling with jitter (0: default)")
	flag.DurationVar(&cfg.BackoffMax, "backoff-max", 0, "child reconnect delay cap (0: default)")
	flag.DurationVar(&cfg.ReadTimeout, "read-timeout", 0, "per-read wire deadline (0 disables)")
	flag.DurationVar(&cfg.WriteTimeout, "write-timeout", 0, "per-write wire deadline (0 disables)")
	flag.Parse()
	for _, c := range strings.Split(*children, ",") {
		if c = strings.TrimSpace(c); c != "" {
			cfg.Children = append(cfg.Children, c)
		}
	}
	if err := run(*listen, *telemetry, cfg, *drainTimeout, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "aggd:", err)
		os.Exit(1)
	}
}

func run(listen, telemetry string, cfg agg.Config, drainTimeout time.Duration, quiet bool) error {
	if !quiet {
		cfg.Logf = log.Printf
	}
	a, err := agg.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", listen, err)
	}
	log.Printf("aggd: serving merged epochs on %s as %q (epoch length %d, %d children)",
		ln.Addr(), cfg.Source, cfg.EpochLength, len(cfg.Children))

	var tsrv *http.Server
	if telemetry != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", a.Metrics().Registry.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		tsrv = &http.Server{Addr: telemetry, Handler: mux}
		tln, err := net.Listen("tcp", telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listen %s: %w", telemetry, err)
		}
		log.Printf("aggd: telemetry on http://%s/metrics", tln.Addr())
		go func() {
			if err := tsrv.Serve(tln); err != nil && err != http.ErrServerClosed {
				log.Printf("aggd: telemetry server: %v", err)
			}
		}()
	}

	a.Start()
	serveErr := make(chan error, 1)
	go func() { serveErr <- a.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		log.Printf("aggd: %v: shutting down (deadline %v)", s, drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	go func() {
		<-sig // a second signal force-closes immediately
		cancel()
	}()
	if err := a.Shutdown(ctx); err != nil {
		log.Printf("aggd: forced shutdown: %v", err)
	} else {
		log.Printf("aggd: shut down cleanly")
	}
	if tsrv != nil {
		tsrv.Close()
	}
	if err := <-serveErr; err != nil {
		return err
	}
	return nil
}
