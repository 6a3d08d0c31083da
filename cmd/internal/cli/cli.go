// Package cli holds what the hwprof commands share: the process lifecycle
// of the two daemons, profiled and aggd, and the candidate printer of the
// two clients, profile and profctl.
package cli

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"hwprof/internal/event"
)

// Daemon is the wire server a Process runs: profiled's server.Server or
// aggd's agg.Aggregator.
type Daemon interface {
	Serve(ln net.Listener) error
	Shutdown(ctx context.Context) error
}

// Process describes one daemon process. The log lines that differ between
// the daemons are given here; Run writes the rest.
type Process struct {
	// Name prefixes every log line.
	Name string
	// Listen is the wire address. Telemetry is the HTTP address serving
	// Metrics at /metrics and a liveness probe at /healthz; empty disables
	// it.
	Listen, Telemetry string
	Metrics           http.Handler
	// DrainTimeout bounds the graceful shutdown the first signal starts.
	DrainTimeout time.Duration
	// Listening logs the daemon's serving line once the wire listener is
	// bound.
	Listening func(addr net.Addr)
	// Start, when non-nil, runs once telemetry is up, before the daemon
	// serves.
	Start func()
	// Draining names what the first signal starts, and Drained what a
	// clean shutdown logs.
	Draining, Drained string
}

// Run listens, serves telemetry and then d until SIGINT or SIGTERM, and
// shuts d down gracefully within DrainTimeout; a second signal force-closes
// at once. It returns d's serve error.
func (p Process) Run(d Daemon) error {
	ln, err := net.Listen("tcp", p.Listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", p.Listen, err)
	}
	p.Listening(ln.Addr())

	var tsrv *http.Server
	if p.Telemetry != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", p.Metrics)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		tsrv = &http.Server{Addr: p.Telemetry, Handler: mux}
		tln, err := net.Listen("tcp", p.Telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listen %s: %w", p.Telemetry, err)
		}
		log.Printf("%s: telemetry on http://%s/metrics", p.Name, tln.Addr())
		go func() {
			if err := tsrv.Serve(tln); err != nil && err != http.ErrServerClosed {
				log.Printf("%s: telemetry server: %v", p.Name, err)
			}
		}()
	}

	if p.Start != nil {
		p.Start()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		log.Printf("%s: %v: %s (deadline %v)", p.Name, s, p.Draining, p.DrainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), p.DrainTimeout)
	defer cancel()
	go func() {
		<-sig // a second signal force-closes immediately
		cancel()
	}()
	if err := d.Shutdown(ctx); err != nil {
		log.Printf("%s: forced shutdown: %v", p.Name, err)
	} else {
		log.Printf("%s: %s", p.Name, p.Drained)
	}
	if tsrv != nil {
		tsrv.Close()
	}
	return <-serveErr
}

// PrintTop writes the top of a profile's counts at or above thresh, one
// line each, hottest first (ties by tuple).
func PrintTop(out io.Writer, counts map[event.Tuple]uint64, thresh uint64, top int) {
	type entry struct {
		t event.Tuple
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
		fmt.Fprintf(out, "  <%#x, %#x>  ×%d\n", e.t.A, e.t.B, e.c)
	}
}
