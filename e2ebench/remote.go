package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"hwprof"
)

// deliveryTimeout bounds the wait for the last profiles and epochs after
// the sender stops; what has not arrived by then counts as failed.
const deliveryTimeout = 60 * time.Second

// remoteRig is one set-up system: a daemon, the session and, on
// publishing workloads, the epoch subscription.
type remoteRig struct {
	d    *daemon
	sess *hwprof.RemoteSession
	sub  *hwprof.Subscription
}

func (r *remoteRig) close() error {
	if r.sub != nil {
		r.sub.Close()
	}
	if r.sess != nil {
		r.sess.Close()
	}
	return r.d.stop()
}

// setUp spawns the daemon and opens the workload's connections, timing
// each step: spawn until the listener accepts, Connect, and on
// publishing workloads the Subscribe attach.
func setUp(e *runEnv, p Params, m *measurement) (*remoteRig, error) {
	ctx := context.Background()
	start := time.Now()
	d, err := startDaemon(e.profiled, e.tmp, p)
	if err != nil {
		return nil, err
	}
	r := &remoteRig{d: d}
	c0 := time.Now()
	r.sess, err = hwprof.Connect(ctx, d.addr,
		hwprof.WithConfig(p.Config), hwprof.WithShards(p.Shards), hwprof.WithBatchSize(p.Frame))
	if err != nil {
		r.close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	m.open = append(m.open, ms(time.Since(c0)))
	if p.Subscribe {
		r.sub, err = hwprof.Subscribe(ctx, d.addr, hwprof.WithIntervalLength(uint64(p.L())))
		if err == nil {
			err = d.waitMetric("hwprof_subscribers_active", 1, 10*time.Second)
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	m.setup = append(m.setup, time.Since(start).Seconds())
	m.ready = append(m.ready, ms(d.ready))
	return r, nil
}

// runRemote measures one window of a remote workload: it sets the system
// up `repeats` times (keeping the last), streams the workload for the
// given time closed- or open-loop, waits for every complete interval's
// profile (and epoch), and tears the system down.
func runRemote(e *runEnv, p Params, stream []hwprof.Tuple, seconds time.Duration, repeats int, tr *tracer) (*measurement, error) {
	m := &measurement{}
	var r *remoteRig
	for i := 0; i < max(repeats, 1); i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if r, err = setUp(e, p, m); err != nil {
			return nil, err
		}
	}
	profDone, epDone := make(chan struct{}), make(chan struct{})
	closed := false
	defer func() {
		if !closed {
			r.close()
			<-profDone
			<-epDone
		}
	}()

	var gotProfiles, gotEpochs atomic.Int64
	progress := make(chan struct{}, 1) // wakes a sender waiting on gotProfiles
	// Profiles and epochs are kept in index order; one that arrives out of
	// order is dropped, and counts as missing in the reference check.
	var recvAt, epochAt []time.Time
	go func() {
		defer close(profDone)
		for pr := range r.sess.Profiles() {
			now := time.Now()
			if !pr.Final && int(pr.Index) == len(recvAt) {
				recvAt = append(recvAt, now)
				m.profiles = append(m.profiles, pr.Counts)
				gotProfiles.Store(int64(len(recvAt)))
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}
	}()
	if r.sub != nil {
		go func() {
			defer close(epDone)
			for ep := range r.sub.C {
				now := time.Now()
				if int(ep.Epoch) != len(epochAt) {
					continue
				}
				counts := ep.Counts
				if ep.Partial || len(ep.Missing) > 0 {
					counts = nil // a partial epoch is a failed delivery
				}
				epochAt = append(epochAt, now)
				m.epochs = append(m.epochs, counts)
				gotEpochs.Store(int64(len(epochAt)))
			}
		}()
	} else {
		close(epDone)
	}
	cpu0, err := procCPU(r.d.pid())
	if err != nil {
		return nil, err
	}
	cpu0 += selfCPU()
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		if tr == nil {
			return
		}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				if s, err := r.d.scrape(); err == nil {
					m.queue = append(m.queue, s["hwprof_queue_depth"])
				}
			}
		}
	}()

	start := time.Now()
	var sentAt []time.Time
	var due func(k int) time.Time
	var sendErr error
	if p.Rate > 0 {
		sentAt, due, sendErr = sendPaced(p, r.sess, stream, start, seconds, m, tr)
	} else {
		answered := func(n int) {
			for gotProfiles.Load() < int64(n) {
				select {
				case <-progress:
				case <-profDone:
					return
				}
			}
		}
		sentAt, sendErr = sendClosed(p, r.sess, stream, start, seconds, answered, m, tr)
	}
	close(stopSampling)
	<-samplerDone
	if sendErr != nil {
		return nil, fmt.Errorf("sending: %w", sendErr)
	}
	want := int64(m.events / p.L())
	m.intervals = int(want)
	waitFor(&gotProfiles, want, profDone)
	if r.sub != nil {
		waitFor(&gotEpochs, want, epDone)
	}
	cpu1, err := procCPU(r.d.pid())
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 + selfCPU() - cpu0
	rss, err := peakRSS(r.d.pid())
	if err != nil {
		return nil, err
	}
	m.rss = append(m.rss, rss)
	if tr != nil {
		if m.server, err = r.d.scrape(); err != nil {
			return nil, err
		}
	}

	if _, err := r.sess.Drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	<-profDone
	if r.sub != nil {
		r.sub.Close()
	}
	<-epDone
	closed = true
	if err := r.close(); err != nil {
		return nil, err
	}

	if n := len(recvAt); n > 0 {
		m.wall = recvAt[n-1].Sub(start)
	}
	for i := range recvAt {
		m.interval = append(m.interval, ms(recvAt[i].Sub(dueOrSent(i, p, due, sentAt))))
	}
	for i := range epochAt {
		m.epoch = append(m.epoch, ms(epochAt[i].Sub(dueOrSent(i, p, due, sentAt))))
	}
	if tr != nil {
		tr.rootIntervals("e2e.interval", recvAt)
	}
	return m, nil
}

// dueOrSent is when interval i's last event entered the system: its due
// time on the open-loop schedule, or when the closed loop's send carrying
// it returned.
func dueOrSent(i int, p Params, due func(int) time.Time, sentAt []time.Time) time.Time {
	if due != nil {
		return due((i+1)*p.L() - 1)
	}
	return sentAt[i]
}

// waitFor polls until n reaches want, the producer is done, or the
// delivery timeout passes.
func waitFor(n *atomic.Int64, want int64, done <-chan struct{}) {
	deadline := time.Now().Add(deliveryTimeout)
	for n.Load() < want && time.Now().Before(deadline) {
		select {
		case <-done:
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// sendClosed streams frame-sized chunks as fast as the session accepts
// them, holding back the events of interval i until answered(i-InFlight+1)
// returns — until the deadline, then up to the next interval boundary. It
// returns, per complete interval, when the send carrying its last event
// returned.
func sendClosed(p Params, s *hwprof.RemoteSession, stream []hwprof.Tuple, start time.Time, seconds time.Duration,
	answered func(n int), m *measurement, tr *tracer) ([]time.Time, error) {
	l, f := p.L(), p.Frame
	c := &cyclic{stream: stream, limit: -1}
	deadline := start.Add(seconds)
	var sentAt []time.Time
	pos, stopAt := 0, -1
	for {
		now := time.Now()
		if stopAt < 0 && now.After(deadline) {
			stopAt = (pos + l - 1) / l * l
		}
		if stopAt >= 0 && pos >= stopAt {
			break
		}
		n := f
		if stopAt >= 0 {
			n = min(n, stopAt-pos)
		}
		if p.InFlight > 0 {
			answered(pos/l - p.InFlight + 1)
			now = time.Now()
		}
		if err := s.ObserveBatch(c.slice(pos, n)); err != nil {
			return nil, err
		}
		if err := s.Flush(); err != nil { // a no-op unless the chunk was short
			return nil, err
		}
		m.frames++
		end := time.Now()
		if tr != nil {
			tr.add("client.send", pos/l, -1, now, end)
		}
		pos += n
		for len(sentAt) < pos/l {
			sentAt = append(sentAt, end)
		}
	}
	m.events = pos
	return sentAt, nil
}

// sendPaced is the open loop: every tick it sends the events due by then
// and flushes, until the deadline, then up to the next interval
// boundary. Event k is due at start + k/rate.
func sendPaced(p Params, s *hwprof.RemoteSession, stream []hwprof.Tuple, start time.Time, seconds time.Duration, m *measurement, tr *tracer) ([]time.Time, func(int) time.Time, error) {
	l, f := p.L(), p.Frame
	c := &cyclic{stream: stream, limit: -1}
	due := func(k int) time.Time { return start.Add(time.Duration(float64(k) / p.Rate * float64(time.Second))) }
	deadline := start.Add(seconds)
	var sentAt []time.Time
	pos, stopAt := 0, -1
	for tick := 1; ; tick++ {
		time.Sleep(time.Until(start.Add(time.Duration(tick) * p.Tick)))
		now := time.Now()
		k := int(now.Sub(start).Seconds() * p.Rate)
		if stopAt < 0 && now.After(deadline) {
			stopAt = (max(k, pos) + l - 1) / l * l
		}
		if stopAt >= 0 {
			k = min(k, stopAt)
		}
		if k > pos {
			if err := s.ObserveBatch(c.slice(pos, k-pos)); err != nil {
				return nil, nil, err
			}
			if err := s.Flush(); err != nil {
				return nil, nil, err
			}
			end := time.Now()
			m.frames += (k - pos + f - 1) / f
			m.late = append(m.late, ms(end.Sub(due(k-1))))
			if tr != nil {
				tr.add("client.send", pos/l, -1, now, end)
			}
			pos = k
			for len(sentAt) < pos/l {
				sentAt = append(sentAt, end)
			}
		}
		if stopAt >= 0 && pos >= stopAt {
			break
		}
	}
	m.events = pos
	return sentAt, due, nil
}

// tmpDir makes a run's temporary directory under root.
func tmpDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
