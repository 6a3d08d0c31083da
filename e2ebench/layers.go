package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hwprof"
	"hwprof/internal/agg"
	"hwprof/internal/core"
	"hwprof/internal/journal"
	"hwprof/internal/scenario"
	"hwprof/internal/shard"
	"hwprof/internal/wire"
)

// replayStats are the counts the layer replay measures at the layer
// boundaries, next to its spans.
type replayStats struct {
	events, intervals, frames int
	frameBytes                int64
	profileBytes              int64
	profileTuples             int
	journalBytes              int64
	fsyncs                    int
	shardNew                  []float64 // ms
}

// shardBuilds is how many engines the replay builds to time shard.New.
const shardBuilds = 5

// replayLayers drives the workload's stream through each daemon-side
// layer's public functions in the order the daemon calls them — decode,
// shard, journal batch, boundary, profile encode, journal boundary, feed
// report — with the workload's frames and interval boundaries, timing
// every call as a span. Every boundary's profile is checked against the
// reference digests.
func replayLayers(p Params, stream []hwprof.Tuple, ref []uint32, tmp string, tr *tracer) (*replayStats, error) {
	l, frame := p.L(), p.ReplayFrame()
	events := min(p.ReplayEvents, len(ref)*l) / l * l
	st := &replayStats{events: events}

	scfg := shard.Config{Core: p.Config, NumShards: p.Shards}
	var sp *shard.Profiler
	for i := 0; i < shardBuilds; i++ {
		t0 := time.Now()
		e, err := shard.New(scfg)
		if err != nil {
			return nil, err
		}
		st.shardNew = append(st.shardNew, ms(time.Since(t0)))
		if sp != nil {
			sp.Close()
		}
		sp = e
	}
	defer sp.Close()

	var pipe bytes.Buffer
	conn := wire.NewConn(&pipe)

	jdir := filepath.Join(tmp, "replay-journal")
	jw, err := journal.Create(journal.Options{
		Dir:      jdir,
		Sync:     journal.SyncInterval,
		OnAppend: func(n int64) { st.journalBytes += n },
		OnSync:   func() { st.fsyncs++ },
	}, journal.Meta{SessionID: 1, Hello: wire.Hello{Config: p.Config, Shards: p.Shards}})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jdir)
	defer jw.Close()
	st.journalBytes, st.fsyncs = 0, 0 // count the stream's records, not the segment header

	feed := agg.NewFeed(agg.FeedConfig{Source: "e2ebench", EpochLength: uint64(l)})
	defer feed.Close()
	feed.Join("replay")
	sub, _ := feed.Subscribe(0, 0)

	c := &cyclic{stream: stream}
	var enc, penc []byte
	var dec []hwprof.Tuple
	for pos := 0; pos < events; pos += frame {
		iv := pos / l
		t0 := time.Now()
		enc = wire.AppendBatch(enc[:0], c.slice(pos, min(frame, events-pos)))
		t1 := time.Now()
		if err := conn.WriteFrame(wire.MsgBatch, enc); err != nil {
			return nil, err
		}
		st.frameBytes += int64(pipe.Len()) // the frame just written, nothing else
		_, payload, err := conn.ReadFrame()
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		dec, err = wire.DecodeBatch(payload, dec[:0])
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		tr.add("wire.batch_encode", iv, -1, t0, t1)
		tr.add("wire.frame", iv, -1, t1, t2)
		tr.add("wire.batch_decode", iv, -1, t2, t3)
		st.frames++

		err = eachPiece(dec, pos, l, func(piece []hwprof.Tuple, iv int, ends bool) error {
			t0 := time.Now()
			sp.ObserveBatch(piece)
			t1 := time.Now()
			if err := jw.Batch(piece, 0); err != nil {
				return err
			}
			t2 := time.Now()
			tr.add("shard.observe", iv, -1, t0, t1)
			tr.add("journal.batch", iv, -1, t1, t2)
			if !ends {
				return nil
			}
			return replayBoundary(p, iv, sp, jw, feed, sub, ref, &penc, st, tr)
		})
		if err != nil {
			return nil, err
		}
	}
	if err := sp.Err(); err != nil {
		return nil, err
	}
	tr.rootIntervals("replay.interval", nil)
	return st, nil
}

// replayBoundary closes interval iv through every layer, in daemon order.
func replayBoundary(p Params, iv int, sp *shard.Profiler, jw *journal.Writer,
	feed *agg.Feed, sub *agg.Sub, ref []uint32, penc *[]byte, st *replayStats, tr *tracer) error {
	t0 := time.Now()
	prof := sp.EndInterval()
	t1 := time.Now()
	*penc = wire.AppendProfile((*penc)[:0], wire.ProfileMsg{Index: uint64(iv), Counts: prof})
	t2 := time.Now()
	if err := jw.Boundary(uint64(iv), 0, *penc, nil); err != nil {
		return err
	}
	t3 := time.Now()
	feed.Report("replay", uint64(iv), prof, nil)
	t4 := time.Now()
	ep := <-sub.C
	t5 := time.Now()
	msg, err := wire.DecodeProfile(*penc)
	if err != nil {
		return err
	}
	t6 := time.Now()
	tr.add("shard.end_interval", iv, -1, t0, t1)
	tr.add("wire.profile_encode", iv, -1, t1, t2)
	tr.add("journal.boundary", iv, -1, t2, t3)
	deliver := tr.add("agg.deliver", iv, -1, t3, t5)
	tr.add("agg.report", iv, deliver, t3, t4)
	tr.add("wire.profile_decode", iv, -1, t5, t6)

	st.intervals++
	st.profileBytes += int64(len(*penc))
	st.profileTuples += len(prof)
	for what, d := range map[string]uint32{
		"shard replay interval":  scenario.Digest(iv, prof),
		"replay epoch":           scenario.Digest(iv, ep.Counts),
		"decoded replay profile": scenario.Digest(iv, msg.Counts),
	} {
		if err := checkReplay(p, what, iv, d, ref); err != nil {
			return err
		}
	}
	if int(ep.Epoch) != iv || ep.Partial {
		return fmt.Errorf("replay epoch %d (partial %v) delivered for interval %d", ep.Epoch, ep.Partial, iv)
	}
	sp.Recycle(prof)
	return nil
}

// replayCore times a core engine of shard 0's geometry — on one shard,
// the very engine the shard layer drives — over the first `events`
// events in the replay's frames and boundaries. It runs after
// replayLayers, on its own, so neither engine is timed while the other
// competes for the cores.
func replayCore(p Params, stream []hwprof.Tuple, ref []uint32, events int, tr *tracer) error {
	l, frame := p.L(), p.ReplayFrame()
	mh, err := core.NewMultiHash(shard.Config{Core: p.Config, NumShards: p.Shards}.ShardConfig(0))
	if err != nil {
		return err
	}
	c := &cyclic{stream: stream}
	for pos := 0; pos < events; pos += frame {
		err := eachPiece(c.slice(pos, min(frame, events-pos)), pos, l, func(piece []hwprof.Tuple, iv int, ends bool) error {
			t0 := time.Now()
			mh.ObserveBatch(piece)
			tr.add("core.observe", iv, -1, t0, time.Now())
			if !ends {
				return nil
			}
			t1 := time.Now()
			h := mh.EndInterval()
			t2 := time.Now()
			d := scenario.Digest(iv, h)
			t3 := time.Now()
			mh.Recycle(h)
			t4 := time.Now()
			// Two spans, so the digest is timed in neither.
			tr.add("core.end_interval", iv, -1, t1, t2)
			tr.add("core.end_interval", iv, -1, t3, t4)
			return checkReplay(p, "core replay interval", iv, d, ref)
		})
		if err != nil {
			return err
		}
	}
	tr.rootIntervals("replay.core.interval", nil)
	return nil
}

// eachPiece splits the frame that starts at event pos of the stream where
// interval boundaries fall, and calls fn on each piece in order, with its
// interval and whether it is that interval's last.
func eachPiece(frame []hwprof.Tuple, pos, l int, fn func(piece []hwprof.Tuple, iv int, ends bool) error) error {
	for len(frame) > 0 {
		k := min(len(frame), l-pos%l)
		if err := fn(frame[:k], pos/l, (pos+k)%l == 0); err != nil {
			return err
		}
		frame, pos = frame[k:], pos+k
	}
	return nil
}

// checkReplay compares a replayed profile's digest with the reference.
func checkReplay(p Params, what string, iv int, d uint32, ref []uint32) error {
	if iv < len(ref) && d != ref[iv] {
		return &divergence{workload: p.Name, what: what, index: iv, got: d, want: ref[iv]}
	}
	return nil
}
