package journal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// FuzzJournal mutates one journal segment and replays it. Meta records
// decode through wire.DecodeHello and notice records through
// wire.DecodeNotice, so this covers the Hello and Notice bytes journals
// store as well as the record framing. The seeds are every segment of a
// rotated journal: one with a resize notice and a rung-only notice, and a
// checkpoint whose send log holds both. Whatever the bytes, Replay must
// not panic, and two replays of the same directory must agree: the same
// records delivered and the same State and Stats, or the same error.
func FuzzJournal(f *testing.F) {
	for _, end := range []bool{false, true} {
		dir := f.TempDir()
		meta := testMeta(1, true) // Retain: rotation keeps every segment
		w, err := Create(Options{Dir: dir, Sync: SyncBatch, SegmentBytes: 1}, meta)
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		prof := func(index uint64) []byte {
			return wire.AppendProfile(nil, wire.ProfileMsg{Index: index, Counts: map[event.Tuple]uint64{{A: 3, B: 1}: 40}})
		}
		c := meta.Hello.Config
		resize := wire.AppendNotice(nil, wire.Notice{Kind: wire.NoticeResize, Index: 0, Observed: 300,
			IntervalLength: 2 * c.IntervalLength, TotalEntries: c.TotalEntries, NumTables: c.NumTables, Shards: 1,
			Reason: "operator resize"})
		rung := wire.AppendNotice(nil, wire.Notice{Kind: wire.NoticeDegrade, Rung: 1, Index: 0, Observed: 300,
			IntervalLength: 2 * c.IntervalLength, TotalEntries: c.TotalEntries, NumTables: c.NumTables, Shards: 1,
			Reason: "shed"})
		entry := func(typ byte, frame []byte) []byte { return append([]byte{typ}, frame...) }
		log := [][]byte{entry(wire.MsgProfile, prof(0)), entry(wire.MsgNotice, resize), entry(wire.MsgNotice, rung),
			entry(wire.MsgProfile, prof(1))}
		// Every boundary rotates: segment 2 opens with a checkpoint and
		// holds both notices, segment 3's checkpoint holds them in its log.
		for _, step := range []func() error{
			func() error { return w.Batch(testEvents(rng, 300), 0) },
			func() error { return w.Boundary(0, 0, prof(0), log[:1]) },
			func() error { return w.Notice(resize) },
			func() error { return w.Notice(rung) },
			func() error { return w.Batch(testEvents(rng, 200), 5) },
			func() error { return w.Boundary(1, 5, prof(1), log) },
			func() error { return w.Batch(testEvents(rng, 100), 5) },
		} {
			if err := step(); err != nil {
				f.Fatal(err)
			}
		}
		if end {
			err = w.End()
		} else {
			err = w.Close()
		}
		if err != nil {
			f.Fatal(err)
		}
		for seg := 1; seg <= 3; seg++ {
			data, err := os.ReadFile(segPath(sessionDir(dir, 1), seg))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := segPath(sessionDir(dir, 1), 1)
		if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var rec1, rec2 recording
		st1, stats1, err1 := Replay(Options{Dir: dir}, 1, &rec1)
		st2, stats2, err2 := Replay(Options{Dir: dir}, 1, &rec2)
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("replays disagree on the error: %v vs %v", err1, err2)
		}
		if !reflect.DeepEqual(rec1, rec2) {
			t.Fatal("replays delivered different records")
		}
		if !reflect.DeepEqual(st1, st2) || stats1 != stats2 {
			t.Fatalf("replays disagree: state %+v vs %+v, stats %+v vs %+v", st1, st2, stats1, stats2)
		}
	})
}
