package agg

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hwprof/internal/telemetry"
	"hwprof/internal/wire"
)

// EpochHandler consumes a subscriber's downstream epochs.
// HandleEpoch receives closed epochs strictly in order; HandleGap declares
// that epochs [from, to) were lost — the upstream's retention ring no
// longer held them when the subscriber (re)attached — before delivery
// continues at `to`.
type EpochHandler interface {
	HandleEpoch(ep Epoch)
	HandleGap(from, to uint64)
}

// FeedHandler adapts a parent Feed into an EpochHandler for one member
// name: epochs report into the feed, gaps become declared skips.
type FeedHandler struct {
	Feed *Feed
	Name string
}

// HandleEpoch reports the child epoch into the parent feed.
func (h FeedHandler) HandleEpoch(ep Epoch) {
	h.Feed.Report(h.Name, ep.Epoch, ep.Counts, ep.Missing)
}

// HandleGap declares the lost span in the parent feed.
func (h FeedHandler) HandleGap(from, to uint64) {
	h.Feed.Skip(h.Name, to)
}

// SubscriberConfig tunes one downstream subscription link.
type SubscriberConfig struct {
	// Addr is the downstream publisher (a profiled daemon or another
	// aggd), host:port; it labels the link in logs.
	Addr string
	// EpochLength, when nonzero, is validated against the upstream's
	// advertised epoch length on attach; a mismatch is a terminal error —
	// merging misaligned epochs would be silently wrong.
	EpochLength uint64
	// Start is the first epoch wanted; epochs below it are never
	// delivered.
	Start uint64

	// Link tunes the dial, the I/O deadlines and the resubscribe loop; see
	// wire.Link. Epochs arrive only as fast as the fleet crosses interval
	// boundaries, so leave ReadTimeout generous. An aggregator's child
	// link retries forever (negative MaxAttempts), because a down child
	// must show up as missing epochs, not a dead link.
	wire.Link

	// Logf receives link lifecycle lines; nil disables.
	Logf func(format string, args ...any)
}

// Subscriber maintains one downstream subscription: it dials, subscribes
// from the next epoch it needs, hands epochs (and declared gaps) to its
// handler in order, and — through the wire.Redialer the event-stream
// client resumes through — redials under jittered exponential backoff
// when the link breaks, resubscribing exactly where delivery stopped. The
// upstream retention ring plays the role the session replay buffer plays
// on event links: a reconnect inside the ring loses nothing, a reconnect
// beyond it declares the gap.
type Subscriber struct {
	cfg     SubscriberConfig
	handler EpochHandler
	redial  *wire.Redialer

	next         atomic.Uint64 // next epoch not yet delivered
	attachedOnce atomic.Bool   // an attachment has succeeded before

	// reconnects counts successful re-attachments and gaps declared gap
	// spans. An aggregator's child link counts straight into the
	// aggregator's per-child series, so a scrape never trails the link.
	reconnects, gaps *telemetry.Counter

	mu  sync.Mutex
	err error
}

// NewSubscriber builds a subscriber delivering into handler.
func NewSubscriber(cfg SubscriberConfig, handler EpochHandler) *Subscriber {
	return newSubscriber(cfg, handler, new(telemetry.Counter), new(telemetry.Counter))
}

// newSubscriber builds a subscriber that counts its re-attachments and
// declared gaps into the given counters.
func newSubscriber(cfg SubscriberConfig, handler EpochHandler, reconnects, gaps *telemetry.Counter) *Subscriber {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Subscriber{cfg: cfg, handler: handler, redial: wire.NewRedialer(cfg.Addr, cfg.Link),
		reconnects: reconnects, gaps: gaps}
	s.next.Store(cfg.Start)
	return s
}

// Reconnects returns how many times the link re-attached after an outage.
func (s *Subscriber) Reconnects() uint64 { return s.reconnects.Load() }

// Gaps returns how many lost spans the link has declared.
func (s *Subscriber) Gaps() uint64 { return s.gaps.Load() }

// Err returns the link's terminal error, nil after a clean Close.
func (s *Subscriber) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Run drives the link until Close or a terminal failure: a protocol or
// configuration refusal, or MaxAttempts consecutive failed attachments.
func (s *Subscriber) Run() error {
	err := s.redial.Redial(nil, s.attachOnce)
	switch {
	case errors.Is(err, wire.ErrRedialerClosed):
		return nil
	case wire.IsPermanent(err):
		return s.fail(fmt.Errorf("agg: subscription to %s failed: %w", s.cfg.Addr, err))
	}
	return s.fail(fmt.Errorf("agg: subscription to %s %w", s.cfg.Addr, err))
}

// fail records the terminal error.
func (s *Subscriber) fail(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// attachOnce makes one attachment: dial, handshake, subscribe from the
// next needed epoch, then deliver epochs until the link breaks. It reports
// whether the subscription was acknowledged (the outage ended) and the
// error that ended the attachment — marked wire.Permanent when retrying
// cannot help.
func (s *Subscriber) attachOnce() (attached bool, err error) {
	conn, wc, err := s.redial.Dial()
	if err != nil {
		return false, err
	}
	defer conn.Close()
	want := s.next.Load()
	if err := wc.WriteFrame(wire.MsgSubscribe, wire.AppendSubscribe(nil, wire.Subscribe{Start: want})); err != nil {
		return false, err
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil {
		return false, err
	}
	switch typ {
	case wire.MsgSubscribeAck:
	case wire.MsgError:
		e, derr := wire.DecodeError(payload)
		if derr != nil {
			return false, derr
		}
		switch e.Code {
		case wire.CodeUnsupported, wire.CodeProtocol, wire.CodeConfig:
			return false, wire.Permanent(e)
		}
		return false, e // overload, draining: retry
	default:
		return false, wire.Permanent(fmt.Errorf("%w: expected subscribe-ack, got frame type %d", wire.ErrProtocol, typ))
	}
	ack, err := wire.DecodeSubscribeAck(payload)
	if err != nil {
		return false, err
	}
	if s.cfg.EpochLength != 0 && ack.EpochLength != 0 && ack.EpochLength != s.cfg.EpochLength {
		return false, wire.Permanent(fmt.Errorf("upstream %s epoch length %d does not match %d; merging misaligned epochs would be wrong",
			ack.Source, ack.EpochLength, s.cfg.EpochLength))
	}
	if ack.First > want {
		// The wanted epochs aged out of the upstream retention ring during
		// the outage: declare the loss instead of pretending continuity.
		s.cfg.Logf("agg: link %s: epochs [%d, %d) lost beyond upstream retention", s.cfg.Addr, want, ack.First)
		s.gaps.Add(1)
		s.handler.HandleGap(want, ack.First)
		s.next.Store(ack.First)
	}
	// The subscription is live: count the re-attachment now, not when this
	// attachment eventually ends, so reconnect telemetry is visible while
	// the resumed link is still up.
	if s.attachedOnce.Swap(true) {
		s.reconnects.Add(1)
	}
	s.cfg.Logf("agg: link %s: subscribed to %s from epoch %d", s.cfg.Addr, ack.Source, s.next.Load())

	for {
		typ, payload, err := wc.ReadFrame()
		if err != nil {
			return true, err
		}
		switch typ {
		case wire.MsgEpoch:
			ep, derr := wire.DecodeEpoch(payload)
			if derr != nil {
				return true, derr // corrupt frame: reconnect and resubscribe
			}
			next := s.next.Load()
			if ep.Epoch < next {
				continue // overlap with an earlier delivery
			}
			if ep.Epoch > next {
				// The upstream jumped — it closed epochs we never saw.
				s.gaps.Add(1)
				s.handler.HandleGap(next, ep.Epoch)
			}
			s.handler.HandleEpoch(ep)
			s.next.Store(ep.Epoch + 1)
		case wire.MsgError:
			e, derr := wire.DecodeError(payload)
			if derr != nil {
				return true, derr
			}
			switch e.Code {
			case wire.CodeUnsupported, wire.CodeProtocol, wire.CodeConfig:
				return true, wire.Permanent(e)
			}
			return true, e
		default:
			return true, wire.Permanent(fmt.Errorf("%w: unexpected frame type %d on subscription", wire.ErrProtocol, typ))
		}
	}
}

// Close stops the link: the current connection closes, backoff sleeps
// abort, Run returns nil.
func (s *Subscriber) Close() { s.redial.Close() }

// ServeSubscription answers one wire Subscribe on an accepted, handshaken
// connection: acknowledge with the feed's identity and the first epoch
// actually available, then stream closed epochs until the subscriber hangs
// up, falls hopelessly behind (its feed channel overflowed — it
// resubscribes from retention), or the feed closes.
func ServeSubscription(conn net.Conn, wc *wire.Conn, feed *Feed, payload []byte, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	req, err := wire.DecodeSubscribe(payload)
	if err != nil {
		wc.WriteFrame(wire.MsgError, wire.AppendError(nil,
			wire.ErrorMsg{Code: wire.CodeProtocol, Msg: fmt.Sprintf("undecodable subscribe: %v", err)}))
		return err
	}
	sub, first := feed.Subscribe(req.Start, 0)
	defer feed.Unsubscribe(sub)
	ack := wire.SubscribeAck{
		Source:      feed.Source(),
		EpochLength: feed.EpochLength(),
		First:       first,
		Window:      uint64(feed.Retain()),
	}
	if err := wc.WriteFrame(wire.MsgSubscribeAck, wire.AppendSubscribeAck(nil, ack)); err != nil {
		return err
	}
	logf("agg: subscriber %s attached from epoch %d", conn.RemoteAddr(), first)

	// A subscription is server-push: the peer sends nothing after the
	// Subscribe, so any read result — a byte, EOF, error — means the
	// attachment is over. The watcher reads the raw conn with its read
	// deadline cleared: wc re-arms the per-read deadline before every
	// read, which would cut an idle, healthy subscription once per read
	// timeout. It closes the conn to unblock a write in flight.
	done := make(chan struct{})
	go func() {
		conn.SetReadDeadline(time.Time{})
		conn.Read(make([]byte, 1))
		conn.Close()
		close(done)
	}()
	var enc []byte
	for {
		select {
		case ep, ok := <-sub.C:
			if !ok {
				conn.Close() // feed closed or buffer overflowed
				return nil
			}
			enc = wire.AppendEpoch(enc[:0], ep)
			if err := wc.WriteFrame(wire.MsgEpoch, enc); err != nil {
				conn.Close()
				return err
			}
		case <-done:
			return nil
		}
	}
}
