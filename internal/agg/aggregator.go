package agg

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hwprof/internal/telemetry"
	"hwprof/internal/wire"
)

// Config tunes an Aggregator.
type Config struct {
	// Source names this aggregator in the epochs it emits upstream.
	Source string
	// Children are the downstream publishers (profiled daemons or other
	// aggds) to subscribe to, host:port each. They are the feed's fixed
	// membership: a child that never connects shows as missing in every
	// epoch, never silently absent.
	Children []string
	// EpochLength is the fleet's events-per-epoch contract; children
	// advertising a different one are refused.
	EpochLength uint64
	// Window bounds open epochs; 0 selects DefaultWindow.
	Window int
	// Deadline is the straggler deadline; 0 selects DefaultDeadline,
	// negative disables.
	Deadline time.Duration
	// Retain bounds the closed-epoch ring served to upstream subscribers;
	// 0 selects DefaultRetain.
	Retain int

	// Link tunes the child links (see wire.Link), except that a zero
	// MaxAttempts means unlimited — a down child must surface as missing
	// epochs, not a dead link. Its ReadTimeout and WriteTimeout also bound
	// the wire operations of upstream subscriber connections.
	wire.Link

	// Logf receives lifecycle lines; nil disables.
	Logf func(format string, args ...any)
}

// Metrics is the aggregator's telemetry surface.
type Metrics struct {
	// Registry holds every metric below.
	Registry *telemetry.Registry

	// EpochsTotal counts epochs closed.
	EpochsTotal *telemetry.Counter
	// EpochsPartial counts epochs closed partial (missing children).
	EpochsPartial *telemetry.Counter
	// Watermark is the number of epochs closed (the fleet watermark).
	Watermark *telemetry.Gauge
	// Frontier is 1 + the highest epoch any child has reported.
	Frontier *telemetry.Gauge
	// LateReports counts child reports dropped because their epoch had
	// already closed.
	LateReports *telemetry.Counter
	// Subscribers is the number of attached upstream subscribers.
	Subscribers *telemetry.Gauge

	// ChildEpochs counts epochs reported per child.
	ChildEpochs *telemetry.CounterVec
	// ChildLag is each child's lag behind the frontier, in epochs, as of
	// its last report.
	ChildLag *telemetry.GaugeVec
	// ChildReconnects counts each child link's re-attachments.
	ChildReconnects *telemetry.CounterVec
	// ChildGaps counts each child link's declared lost spans.
	ChildGaps *telemetry.CounterVec
}

func newMetrics() *Metrics {
	r := telemetry.NewRegistry()
	return &Metrics{
		Registry:        r,
		EpochsTotal:     r.Counter("agg_epochs_total", "Fleet epochs closed."),
		EpochsPartial:   r.Counter("agg_epochs_partial_total", "Fleet epochs closed partial (missing children)."),
		Watermark:       r.Gauge("agg_epoch_watermark", "Epochs closed so far (fleet watermark)."),
		Frontier:        r.Gauge("agg_epoch_frontier", "1 + highest epoch any child reported."),
		LateReports:     r.Counter("agg_late_reports_total", "Child reports dropped: epoch already closed."),
		Subscribers:     r.Gauge("agg_subscribers_active", "Attached upstream subscribers."),
		ChildEpochs:     r.CounterVec("agg_child_epochs_total", "Epochs reported, per child.", "child"),
		ChildLag:        r.GaugeVec("agg_child_lag_epochs", "Child lag behind the frontier in epochs, per child.", "child"),
		ChildReconnects: r.CounterVec("agg_child_reconnects_total", "Child link re-attachments, per child.", "child"),
		ChildGaps:       r.CounterVec("agg_child_gaps_total", "Declared lost epoch spans, per child.", "child"),
	}
}

// Aggregator is one node of the fleet merge tree: it subscribes to its
// configured children, merges their epochs through a Feed under the
// watermark protocol, and serves the merged epochs to its own subscribers
// over the same wire Subscribe surface — so trees compose by pointing an
// aggd at other aggds.
type Aggregator struct {
	cfg     Config
	feed    *Feed
	metrics *Metrics
	subs    []*Subscriber

	listener wire.Listener  // upstream subscriber connections
	linkWg   sync.WaitGroup // child-link runners
}

// New builds an aggregator from cfg. Children are registered as feed
// members immediately: until a child's first report, every closed epoch
// names it missing.
func New(cfg Config) (*Aggregator, error) {
	if len(cfg.Children) == 0 {
		return nil, errors.New("agg: no children configured")
	}
	if cfg.EpochLength == 0 {
		return nil, errors.New("agg: epoch length is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = -1
	}
	a := &Aggregator{cfg: cfg, metrics: newMetrics()}
	m := a.metrics
	a.feed = NewFeed(FeedConfig{
		Source:      cfg.Source,
		EpochLength: cfg.EpochLength,
		Window:      cfg.Window,
		Deadline:    cfg.Deadline,
		Retain:      cfg.Retain,
		Logf:        cfg.Logf,
		OnEpoch: func(ep Epoch) {
			m.EpochsTotal.Inc()
			if ep.Partial {
				m.EpochsPartial.Inc()
			}
			m.Watermark.Set(int64(ep.Epoch + 1))
		},
		OnReport: func(child string, _, lag uint64) {
			m.ChildEpochs.With(child).Inc()
			m.ChildLag.With(child).Set(int64(lag))
		},
		OnLate: func(string, uint64) { m.LateReports.Inc() },
	})
	seen := make(map[string]bool, len(cfg.Children))
	for _, child := range cfg.Children {
		if seen[child] {
			return nil, fmt.Errorf("agg: duplicate child %s", child)
		}
		seen[child] = true
		a.feed.JoinAt(child, 0)
		a.subs = append(a.subs, NewSubscriber(SubscriberConfig{
			Addr:        child,
			EpochLength: cfg.EpochLength,
			Link:        cfg.Link,
			Logf:        cfg.Logf,
		}, FeedHandler{Feed: a.feed, Name: child}))
	}
	return a, nil
}

// Feed returns the aggregator's merge feed.
func (a *Aggregator) Feed() *Feed { return a.feed }

// Metrics returns the aggregator's telemetry surface.
func (a *Aggregator) Metrics() *Metrics { return a.metrics }

// ChildReconnects sums re-attachments across every child link.
func (a *Aggregator) ChildReconnects() uint64 {
	var n uint64
	for _, s := range a.subs {
		n += s.Reconnects()
	}
	return n
}

// Start launches the child subscription links. Call once, before or after
// Serve.
func (a *Aggregator) Start() {
	for i, sub := range a.subs {
		child := a.cfg.Children[i]
		reconnects := a.metrics.ChildReconnects.With(child)
		gaps := a.metrics.ChildGaps.With(child)
		a.linkWg.Add(1)
		go func(sub *Subscriber) {
			defer a.linkWg.Done()
			var lastRec, lastGap uint64
			done := make(chan error, 1)
			go func() { done <- sub.Run() }()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case err := <-done:
					reconnects.Add(sub.Reconnects() - lastRec)
					gaps.Add(sub.Gaps() - lastGap)
					if err != nil {
						a.cfg.Logf("agg: child link %s: %v", child, err)
					}
					return
				case <-tick.C:
					rec, gp := sub.Reconnects(), sub.Gaps()
					reconnects.Add(rec - lastRec)
					gaps.Add(gp - lastGap)
					lastRec, lastGap = rec, gp
					a.metrics.Frontier.Set(int64(a.feed.Frontier()))
				}
			}
		}(sub)
	}
}

// Serve accepts upstream subscribers on ln until Shutdown. It returns nil
// after a clean Shutdown and the accept error otherwise.
func (a *Aggregator) Serve(ln net.Listener) error {
	return a.listener.Serve(ln, a.handleConn)
}

// handleConn owns one upstream connection: handshake, then exactly one
// Subscribe answered with the epoch stream.
func (a *Aggregator) handleConn(conn net.Conn) {
	wc := wire.NewConn(wire.WithDeadlines(conn, a.cfg.ReadTimeout, a.cfg.WriteTimeout))
	if err := wc.ServerHandshake(); err != nil {
		a.cfg.Logf("agg: conn %s: handshake: %v", conn.RemoteAddr(), err)
		return
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		a.cfg.Logf("agg: conn %s: reading opening frame: %v", conn.RemoteAddr(), err)
		return
	}
	if typ != wire.MsgSubscribe {
		wc.WriteFrame(wire.MsgError, wire.AppendError(nil,
			wire.ErrorMsg{Code: wire.CodeProtocol, Msg: fmt.Sprintf("expected subscribe, got frame type %d", typ)}))
		return
	}
	a.metrics.Subscribers.Add(1)
	defer a.metrics.Subscribers.Add(-1)
	if err := ServeSubscription(conn, wc, a.feed, payload, a.cfg.Logf); err != nil {
		a.cfg.Logf("agg: subscriber %s: %v", conn.RemoteAddr(), err)
	}
}

// Shutdown stops the aggregator: the listener closes, child links stop,
// the feed closes (ending every upstream subscription), and everything is
// awaited. When ctx expires first, remaining connections are force-closed
// and ctx.Err() returned.
func (a *Aggregator) Shutdown(ctx context.Context) error {
	a.listener.Close()
	for _, sub := range a.subs {
		sub.Close()
	}
	a.linkWg.Wait()
	a.feed.Close()
	return a.listener.Wait(ctx)
}
