package hwprof

import (
	"context"
	"sync"
	"sync/atomic"

	"hwprof/internal/agg"
)

// EpochProfile is one closed fleet epoch delivered by an epoch publisher —
// a profiled daemon with publishing enabled, or an aggd merging a subtree.
// Epochs are identified by interval index, never wall clock; the counts
// are the merged profile of every member that reported the interval.
type EpochProfile struct {
	// Source is the publisher's machine or aggregator ID.
	Source string

	// Epoch is the interval index the merged counts cover.
	Epoch uint64

	// Partial reports that at least one expected member's counts are
	// absent — a straggler deadline fired, an open-epoch window
	// overflowed, or a subtree's own epoch was partial. Missing names
	// them; at the tree root they name the actual absent leaves.
	Partial bool

	// Children is how many direct members reported into this epoch at the
	// publisher.
	Children uint64

	// Missing lists the absent members, sorted.
	Missing []string

	// Counts is the merged profile.
	Counts map[Tuple]uint64
}

// Subscription is one attached epoch subscription. Read C until it closes,
// then check Err: nil means the subscription was closed deliberately;
// anything else is the terminal link failure. Epochs arrive strictly in
// index order; spans the publisher no longer retained when the link
// (re)attached are skipped, counted by Gaps.
type Subscription struct {
	// C delivers closed epochs in order until the subscription ends.
	C <-chan EpochProfile

	ch      chan EpochProfile
	sub     *agg.Subscriber
	done    chan struct{} // closed by Close; unblocks the delivery goroutine
	runDone chan struct{} // closed when the link goroutine has exited
	once    sync.Once

	gaps atomic.Uint64
	err  error // link verdict; written before runDone closes
}

// subHandler bridges the link goroutine's in-order delivery into the
// subscription channel, giving up when the subscription is closed.
type subHandler struct{ s *Subscription }

func (h subHandler) HandleEpoch(ep agg.Epoch) {
	select {
	case h.s.ch <- EpochProfile{
		Source:   ep.Source,
		Epoch:    ep.Epoch,
		Partial:  ep.Partial,
		Children: ep.Children,
		Missing:  ep.Missing,
		Counts:   ep.Counts,
	}:
	case <-h.s.done:
	}
}

func (h subHandler) HandleGap(from, to uint64) { h.s.gaps.Add(to - from) }

// Subscribe attaches to the epoch publisher at addr and delivers its
// closed epochs on the returned subscription's channel, starting at
// WithStartEpoch (0 by default — earlier epochs already evicted from the
// publisher's retention ring are skipped and counted as a gap).
//
// The link reuses the remote options vocabulary, and Connect's redial
// loop: WithDialTimeout, WithBackoff, WithMaxAttempts, WithReadTimeout /
// WithWriteTimeout, WithDialer. A broken link is redialed under jittered
// exponential backoff and the subscription resumed at the next epoch
// needed; WithoutReconnect makes the first failure terminal instead.
// WithIntervalLength, when given, is validated against the publisher's
// advertised epoch length — a mismatch is a terminal error, because
// merging misaligned epochs would be silently wrong.
//
// ctx governs the subscription's lifetime: cancelling it ends the
// subscription like Close. The first attach happens asynchronously; a
// publisher that refuses the subscription surfaces through Err after C
// closes.
func Subscribe(ctx context.Context, addr string, opts ...Option) (*Subscription, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	link := o.remote.Link
	if o.noReconnect {
		link.MaxAttempts = 1 // the first break ends the subscription
	}
	s := &Subscription{
		ch:      make(chan EpochProfile, agg.DefaultSubBuffer),
		done:    make(chan struct{}),
		runDone: make(chan struct{}),
	}
	s.C = s.ch
	s.sub = agg.NewSubscriber(agg.SubscriberConfig{
		Addr:        addr,
		EpochLength: o.run.IntervalLength,
		Start:       o.start,
		Link:        link,
	}, subHandler{s})
	go func() {
		defer close(s.runDone)
		s.err = s.sub.Run()
		close(s.ch)
	}()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Close()
			case <-s.runDone:
			}
		}()
	}
	return s, nil
}

// Gaps returns the number of epochs skipped because the publisher no
// longer retained them when the link (re)attached.
func (s *Subscription) Gaps() uint64 { return s.gaps.Load() }

// Err returns the subscription's terminal link error, nil if it was ended
// by Close (or ctx). Valid once C has closed.
func (s *Subscription) Err() error {
	select {
	case <-s.runDone:
		return s.err
	default:
		return nil
	}
}

// Close ends the subscription: the link is torn down, C closes, Err stays
// nil (unless the link had already failed). Safe to call more than once.
func (s *Subscription) Close() error {
	s.once.Do(func() {
		close(s.done)
		s.sub.Close()
	})
	<-s.runDone
	return nil
}
