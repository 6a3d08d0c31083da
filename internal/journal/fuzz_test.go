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

// FuzzJournal mutates one journal segment and replays it. Meta and resize
// records decode through wire.DecodeHello, so this covers the Hello bytes
// journals store as well as the record framing. Whatever the bytes, Replay
// must not panic, and two replays of the same directory must agree: the
// same records delivered and the same State and Stats, or the same error.
func FuzzJournal(f *testing.F) {
	for _, end := range []bool{false, true} {
		dir := f.TempDir()
		meta := testMeta(1, false)
		w, err := Create(Options{Dir: dir, Sync: SyncBatch}, meta)
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		prof := wire.AppendProfile(nil, wire.ProfileMsg{Counts: map[event.Tuple]uint64{{A: 3, B: 1}: 40}})
		resized := meta.Hello
		resized.Config.IntervalLength *= 2
		resized.Shards = 1
		for _, step := range []func() error{
			func() error { return w.Batch(testEvents(rng, 300), 0) },
			func() error { return w.Boundary(0, 0, prof, [][]byte{prof}) },
			func() error { return w.Resize(resized) },
			func() error { return w.Batch(testEvents(rng, 200), 5) },
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
		data, err := os.ReadFile(segPath(sessionDir(dir, 1), 1))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
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
