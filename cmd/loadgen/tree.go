package main

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"hwprof"
	"hwprof/internal/faultinject"
	"hwprof/internal/shard"
)

// tree drives a fleet aggregation tree and checks its root against a local
// single-engine run. One marked session per daemon acts as one shard of a
// fleet-wide engine: every session runs the scenario's n-shard
// configuration, and each union-stream tuple goes to the session its
// shard route picks, so inside daemon i only shard i sees events. Marks
// placed on every session at each scenario interval boundary align the
// fleet's epochs to union stream positions, which makes the merged root
// epoch the exact per-shard decomposition of a local n-shard run over the
// union stream — compared bit-for-bit here.
func (g *generator) tree(daemons []string, root string) error {
	n := len(daemons)
	if g.scn.Shards != n {
		return fmt.Errorf("tree mode: scenario %s has %d shard(s), want one per daemon (%d)", g.scn.Name, g.scn.Shards, n)
	}
	cfg := g.scn.Config() // every session shards the SAME engine: one seed, not seed+i
	epochs := int(g.scn.TotalEvents() / cfg.IntervalLength)
	total := uint64(epochs) * cfg.IntervalLength

	fmt.Printf("loadgen: tree mode: %d epoch(s) × %d events across %d daemon(s), root %s\n",
		epochs, cfg.IntervalLength, n, root)

	// Subscribe to the root before streaming so no epoch can fall out of
	// its retention ring before we read it.
	sub, err := hwprof.Subscribe(context.Background(), root,
		hwprof.WithIntervalLength(cfg.IntervalLength))
	if err != nil {
		return fmt.Errorf("subscribe %s: %w", root, err)
	}
	defer sub.Close()
	var fleet []hwprof.EpochProfile
	collDone := make(chan struct{})
	go func() {
		defer close(collDone)
		for ep := range sub.C {
			fleet = append(fleet, ep)
			if len(fleet) >= epochs {
				return
			}
		}
	}()

	// One marked session per daemon, each dialed through its own fault
	// link: every fault window cuts or corrupts every daemon link, proving
	// the tree survives leaf links dying.
	ctx := context.Background()
	sessions := make([]*hwprof.RemoteSession, n)
	links := make([]*atomic.Pointer[faultinject.TriggerConn], n)
	var profWg sync.WaitGroup
	for i, addr := range daemons {
		links[i] = new(atomic.Pointer[faultinject.TriggerConn])
		sess, err := hwprof.Connect(ctx, addr,
			hwprof.WithConfig(cfg), hwprof.WithShards(n), hwprof.WithBatchSize(g.scn.Batch),
			hwprof.WithMarks(),
			hwprof.WithBackoff(g.backoff, 0), hwprof.WithMaxAttempts(g.attempts),
			hwprof.WithDialer(triggerDialer(links[i])))
		if err != nil {
			return fmt.Errorf("daemon %s: %w", addr, err)
		}
		defer sess.Close()
		sessions[i] = sess
		profWg.Add(1)
		go func(s *hwprof.RemoteSession) { // keep the profile channel drained
			defer profWg.Done()
			for range s.Profiles() {
			}
		}(sess)
	}

	// Stream the union stream, routing tuple by tuple.
	src, err := g.stream(cfg.Seed, links...)
	if err != nil {
		return err
	}
	union := &recordSource{inner: src}
	for pos := uint64(0); pos < total; pos++ {
		t, ok := union.Next()
		if !ok {
			return fmt.Errorf("stream ended after %d of %d events", pos, total)
		}
		i := int(shard.RouteHash(t) % uint64(n))
		if err := sessions[i].Observe(t); err != nil {
			return fmt.Errorf("daemon %s: %w", daemons[i], err)
		}
		if (pos+1)%cfg.IntervalLength == 0 {
			for i, s := range sessions {
				if err := s.Mark(); err != nil {
					return fmt.Errorf("mark daemon %s: %w", daemons[i], err)
				}
			}
		}
	}
	var reconnects uint64
	for i, s := range sessions {
		if _, err := s.Drain(); err != nil {
			return fmt.Errorf("drain daemon %s: %w", daemons[i], err)
		}
		reconnects += s.Reconnects()
	}
	profWg.Wait()
	fmt.Printf("loadgen: tree: streamed %d events, reconnects: %d\n", total, reconnects)

	// The reference: the same union stream through one local n-shard engine.
	ref, err := segmentProfiles(cfg, n, union.buf)
	if err != nil {
		return fmt.Errorf("local reference run: %w", err)
	}

	select {
	case <-collDone:
	case <-time.After(60 * time.Second):
		sub.Close()
		<-collDone
		return fmt.Errorf("timed out waiting for fleet epochs: got %d of %d", len(fleet), epochs)
	}
	sub.Close()
	if err := sub.Err(); err != nil {
		return fmt.Errorf("root subscription: %w", err)
	}
	if gaps := sub.Gaps(); gaps > 0 {
		return fmt.Errorf("root subscription skipped %d epoch(s) beyond retention", gaps)
	}

	bad := 0
	for _, ep := range fleet {
		if ep.Partial {
			bad++
			fmt.Printf("loadgen: tree: epoch %d PARTIAL, missing %v\n", ep.Epoch, ep.Missing)
			continue
		}
		if ep.Epoch >= uint64(len(ref)) || !maps.Equal(ep.Counts, ref[ep.Epoch]) {
			bad++
			fmt.Printf("loadgen: tree: epoch %d MISMATCH: root has %d tuple(s), reference %d\n",
				ep.Epoch, len(ep.Counts), len(ref[ep.Epoch]))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d fleet epoch(s) diverged from the local union run", bad, epochs)
	}
	fmt.Printf("loadgen: tree: root profile bit-identical to single-engine union run (%d epochs, %d daemons)\n",
		epochs, n)
	return nil
}
