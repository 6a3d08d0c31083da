package journal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/faultinject"
	"hwprof/internal/wire"
)

func testMeta(id uint64, retain bool) Meta {
	return Meta{
		SessionID: id,
		Hello: wire.Hello{
			Config: core.Config{
				IntervalLength:     1000,
				ThresholdPercent:   0.5,
				TotalEntries:       256,
				NumTables:          2,
				CounterWidth:       24,
				ConservativeUpdate: true,
				Retain:             retain,
				Seed:               42,
			},
			Shards: 2,
			Marked: retain,
		},
		Pub:     true,
		PubBase: 7,
	}
}

// recording implements Handler by collecting everything replayed.
type recording struct {
	meta       Meta
	init       State
	started    bool
	batches    [][]event.Tuple
	boundaries []struct {
		Index, Shed uint64
		Profile     []byte
	}
	notices []struct {
		Frame []byte
		Hello wire.Hello
	}
}

func (r *recording) Start(meta Meta, state State) error {
	r.meta, r.init, r.started = meta, state, true
	return nil
}

func (r *recording) Batch(events []event.Tuple) error {
	r.batches = append(r.batches, append([]event.Tuple(nil), events...))
	return nil
}

func (r *recording) Boundary(index, shed uint64, profile []byte) error {
	r.boundaries = append(r.boundaries, struct {
		Index, Shed uint64
		Profile     []byte
	}{index, shed, profile})
	return nil
}

func (r *recording) Notice(frame []byte, h wire.Hello) error {
	r.notices = append(r.notices, struct {
		Frame []byte
		Hello wire.Hello
	}{frame, h})
	return nil
}

func (r *recording) events() []event.Tuple {
	var all []event.Tuple
	for _, b := range r.batches {
		all = append(all, b...)
	}
	return all
}

func testEvents(rng *rand.Rand, n int) []event.Tuple {
	evs := make([]event.Tuple, n)
	for i := range evs {
		evs[i] = event.Tuple{A: rng.Uint64() % 512, B: rng.Uint64() % 8}
	}
	return evs
}

// writeSession journals nint intervals of nev events each, starting at
// interval index start, and returns the events and profiles written.
func writeSession(t *testing.T, w *Writer, rng *rand.Rand, start, nint, nev int) ([]event.Tuple, [][]byte) {
	t.Helper()
	var all []event.Tuple
	var profiles [][]byte
	var ring [][]byte
	for i := start; i < start+nint; i++ {
		evs := testEvents(rng, nev)
		half := nev / 2
		if err := w.Batch(evs[:half], 0); err != nil {
			t.Fatalf("batch: %v", err)
		}
		if err := w.Batch(evs[half:], 0); err != nil {
			t.Fatalf("batch: %v", err)
		}
		all = append(all, evs...)
		prof := wire.AppendProfile(nil, wire.ProfileMsg{
			Index:  uint64(i),
			Counts: map[event.Tuple]uint64{{A: uint64(i), B: 1}: uint64(nev)},
		})
		profiles = append(profiles, prof)
		ring = append(ring, prof)
		if len(ring) > 4 {
			ring = ring[1:]
		}
		if err := w.Boundary(uint64(i), 0, prof, ring); err != nil {
			t.Fatalf("boundary %d: %v", i, err)
		}
	}
	return all, profiles
}

// equalEvents compares event streams treating nil and empty as equal.
func equalEvents(a, b []event.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSyncPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"none", SyncNone}, {"interval", SyncInterval}, {"batch", SyncBatch}} {
		got, err := ParseSync(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSync(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
		text, err := got.MarshalText()
		if err != nil || string(text) != tc.in {
			t.Fatalf("MarshalText() = %q, %v, want %q", text, err, tc.in)
		}
		var back SyncPolicy
		if err := back.UnmarshalText(text); err != nil || back != tc.want {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
	}
	if _, err := ParseSync("always"); err == nil {
		t.Fatal("ParseSync accepted junk")
	}
	back := SyncBatch
	if err := back.UnmarshalText([]byte("always")); err == nil || back != SyncBatch {
		t.Fatalf("UnmarshalText accepted junk or overwrote the policy: %v, %v", back, err)
	}
}

// TestJournalRoundTrip writes a session, closes the journal as a graceful
// shutdown would, and recovers it: meta, batches and boundaries must come
// back verbatim, in order, with the stream position intact.
func TestJournalRoundTrip(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncNone, SyncInterval, SyncBatch} {
		t.Run(sync.String(), func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Sync: sync}
			meta := testMeta(3, false)
			w, err := Create(opts, meta)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			all, profiles := writeSession(t, w, rng, 0, 5, 40)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			ids, err := ScanDir(opts.Dir)
			if err != nil || !reflect.DeepEqual(ids, []uint64{3}) {
				t.Fatalf("ScanDir = %v, %v", ids, err)
			}

			var rec recording
			w2, st, stats, err := Recover(opts, 3, &rec)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if w2 == nil {
				t.Fatal("recover returned nil writer for an unended session")
			}
			defer w2.Abandon()
			if stats.TornSegments != 0 {
				t.Fatalf("clean close recovered with stats %+v", stats)
			}
			if !reflect.DeepEqual(rec.meta, meta) {
				t.Fatalf("meta round-trip:\n got %+v\nwant %+v", rec.meta, meta)
			}
			if got := rec.events(); !reflect.DeepEqual(got, all) {
				t.Fatalf("replayed %d events, want %d (first diff hunting skipped)", len(got), len(all))
			}
			if len(rec.boundaries) != 5 {
				t.Fatalf("replayed %d boundaries, want 5", len(rec.boundaries))
			}
			for i, b := range rec.boundaries {
				if b.Index != uint64(i) || !reflect.DeepEqual(b.Profile, profiles[i]) {
					t.Fatalf("boundary %d mismatch", i)
				}
			}
			want := State{Interval: 5, Observed: uint64(len(all))}
			if st.Interval != want.Interval || st.Observed != want.Observed || st.Shed != 0 {
				t.Fatalf("state = %+v, want %+v", st, want)
			}

			// The recovered writer must continue the stream: append another
			// interval and recover again.
			more, _ := writeSession(t, w2, rng, 5, 1, 20)
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			var rec2 recording
			w3, st2, _, err := Recover(opts, 3, &rec2)
			if err != nil {
				t.Fatalf("second recover: %v", err)
			}
			w3.Abandon()
			if got := rec2.events(); !reflect.DeepEqual(got, append(append([]event.Tuple(nil), all...), more...)) {
				t.Fatalf("second replay saw %d events, want %d", len(got), len(all)+len(more))
			}
			if st2.Interval != 6 {
				t.Fatalf("second replay interval = %d, want 6", st2.Interval)
			}
		})
	}
}

// TestJournalCleanEnd proves an ended session recovers as nothing to do.
func TestJournalCleanEnd(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Sync: SyncInterval}
	w, err := Create(opts, testMeta(9, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	writeSession(t, w, rng, 0, 2, 30)
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	var rec recording
	w2, _, _, err := Recover(opts, 9, &rec)
	if err != nil {
		t.Fatalf("recover of ended session: %v", err)
	}
	if w2 != nil {
		t.Fatal("ended session recovered a live writer")
	}
	if rec.started {
		t.Fatal("ended session replayed records")
	}
}

// TestJournalTornTail cuts the active segment at every byte offset in its
// tail region: recovery must truncate at the last valid CRC, replay the
// surviving prefix, and hand back a writer that continues it.
func TestJournalTornTail(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Sync: SyncBatch}
	meta := testMeta(5, false)
	w, err := Create(opts, meta)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	writeSession(t, w, rng, 0, 3, 24)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(opts.Dir, "session-5", "seg-00000001.wal")
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the final ~200 bytes one offset at a time (every offset would be
	// slow with an engine in the loop later; the block layer's own test
	// already covers every offset exhaustively).
	start := len(pristine) - 200
	if start < 7 {
		start = 7
	}
	for cut := start; cut < len(pristine); cut++ {
		if err := os.WriteFile(seg, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var rec recording
		w2, st, stats, err := Recover(opts, 5, &rec)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		if !rec.started || !reflect.DeepEqual(rec.meta, meta) {
			t.Fatalf("cut %d: replay lost the meta record", cut)
		}
		if st.Observed != uint64(len(rec.events())) {
			t.Fatalf("cut %d: state observed %d, replayed %d", cut, st.Observed, len(rec.events()))
		}
		// A cut mid-record must be truncated and counted.
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > int64(cut) {
			t.Fatalf("cut %d: recovery grew the file to %d", cut, fi.Size())
		}
		// A cut at a frame boundary discards nothing; any other cut is a
		// counted truncation.
		wantTorn := 0
		if fi.Size() < int64(cut) {
			wantTorn = 1
		}
		if stats.TornSegments != wantTorn {
			t.Fatalf("cut %d: stats = %+v, want %d torn segment(s)", cut, stats, wantTorn)
		}
		// The recovered writer continues the stream bit-consistently.
		evs := testEvents(rng, 8)
		if err := w2.Batch(evs, 0); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		var rec2 recording
		w3, st2, _, err := Recover(opts, 5, &rec2)
		if err != nil {
			t.Fatalf("cut %d: recover after append: %v", cut, err)
		}
		w3.Abandon()
		if st2.Observed != st.Observed+8 {
			t.Fatalf("cut %d: appended events lost: %d -> %d", cut, st.Observed, st2.Observed)
		}
		wantTail := rec2.events()[len(rec2.events())-8:]
		if !reflect.DeepEqual(wantTail, evs) {
			t.Fatalf("cut %d: appended batch did not round-trip", cut)
		}
	}
}

// TestJournalTornWriter drives the journal through a faultinject.TornWriter
// so the tear happens inside the writer's own flush path, not by editing
// files afterwards.
func TestJournalTornWriter(t *testing.T) {
	dir := t.TempDir()
	var torn *faultinject.TornWriter
	opts := Options{
		Dir:  dir,
		Sync: SyncBatch,
		Open: func(path string) (File, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				return nil, err
			}
			torn = &faultinject.TornWriter{W: f, After: 901}
			return struct {
				*faultinject.TornWriter
				syncCloser
			}{torn, syncCloser{f}}, nil
		},
	}
	w, err := Create(opts, testMeta(11, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	writeSession(t, w, rng, 0, 10, 40)
	if !torn.Torn() {
		t.Fatal("tear point never crossed; raise the write volume")
	}
	w.Abandon()

	var rec recording
	w2, st, stats, err := Recover(opts2(dir), 11, &rec)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	w2.Abandon()
	if stats.TornSegments != 1 {
		t.Fatalf("stats = %+v, want one torn segment", stats)
	}
	if !rec.started || st.Observed != uint64(len(rec.events())) {
		t.Fatalf("replay inconsistent: state %+v, %d events", st, len(rec.events()))
	}
	if st.Observed == 0 {
		t.Fatal("nothing survived a 900-byte prefix")
	}
}

// syncCloser supplies Sync/Close for a torn-writer composite.
type syncCloser struct{ f *os.File }

func (s syncCloser) Sync() error  { return s.f.Sync() }
func (s syncCloser) Close() error { return s.f.Close() }

func opts2(dir string) Options { return Options{Dir: dir, Sync: SyncBatch} }

// TestJournalFsyncFailure proves a failing fsync surfaces as an error from
// the durability barrier — the session must die typed, not limp on.
func TestJournalFsyncFailure(t *testing.T) {
	opts := Options{
		Dir:  t.TempDir(),
		Sync: SyncBatch,
		Open: func(path string) (File, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				return nil, err
			}
			return &faultinject.FailingFile{F: f, After: 3}, nil
		},
	}
	w, err := Create(opts, testMeta(13, false))
	if err != nil {
		t.Fatal(err) // creation fsync is call 1
	}
	if err := w.Batch(testEvents(rand.New(rand.NewSource(5)), 10), 0); err != nil {
		t.Fatal(err) // call 2
	}
	err = w.Batch(testEvents(rand.New(rand.NewSource(6)), 10), 0) // call 3 fails
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("batch after fsync failure: %v, want ErrInjected", err)
	}
	w.Abandon()
}

// TestJournalRotation exercises segment rotation under both truncation
// regimes: a restartable (Retain-off) session keeps only the checkpointed
// suffix, a Retain session keeps its full history — and both recover to
// the same stream position.
func TestJournalRotation(t *testing.T) {
	for _, retain := range []bool{false, true} {
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Sync: SyncInterval, SegmentBytes: 2048}
			meta := testMeta(21, retain)
			w, err := Create(opts, meta)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			all, profiles := writeSession(t, w, rng, 0, 24, 60)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			segs, err := segIndexes(filepath.Join(opts.Dir, "session-21"))
			if err != nil {
				t.Fatal(err)
			}
			if retain {
				// Full history: every segment from 1 on survives.
				if len(segs) < 2 || segs[0] != 1 {
					t.Fatalf("retain journal truncated its history: segments %v", segs)
				}
			} else {
				// Acked prefix truncated: only the checkpointed suffix
				// (usually a single segment) remains, and it is not seg 1.
				if segs[0] == 1 || segs[len(segs)-1] < 2 {
					t.Fatalf("restartable journal kept its acked prefix: segments %v", segs)
				}
			}

			var rec recording
			w2, st, _, err := Recover(opts, 21, &rec)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			w2.Abandon()
			if st.Interval != 24 || st.Observed != uint64(len(all)) {
				t.Fatalf("recovered state %+v, want interval 24, observed %d", st, len(all))
			}
			if retain {
				// Full history replays.
				if !equalEvents(rec.events(), all) {
					t.Fatalf("retain journal replayed %d events, want %d", len(rec.events()), len(all))
				}
				if rec.init.Interval != 0 || len(rec.init.Ring) != 0 {
					t.Fatalf("retain journal started from checkpoint %+v", rec.init)
				}
			} else {
				// Replay starts at the last checkpoint: the events replayed
				// must be exactly the tail of the stream after it.
				skip := int(rec.init.Observed)
				if !equalEvents(rec.events(), all[skip:]) {
					t.Fatalf("checkpoint replay mismatch: init %+v, %d events", rec.init, len(rec.events()))
				}
				// The checkpoint ring carries the profiles before the entry
				// point, ending at the checkpoint interval.
				if len(rec.init.Ring) == 0 {
					t.Fatal("checkpoint carried no resume ring")
				}
				wantRing := profiles[int(rec.init.Interval)-len(rec.init.Ring) : rec.init.Interval]
				if !reflect.DeepEqual(rec.init.Ring, wantRing) {
					t.Fatalf("checkpoint ring mismatch at interval %d", rec.init.Interval)
				}
			}
		})
	}
}

// TestJournalAbandon proves Abandon models a crash: buffered unflushed
// records are lost, previously synced ones survive.
func TestJournalAbandon(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Sync: SyncInterval}
	w, err := Create(opts, testMeta(31, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	// Two full intervals (synced at their boundaries), then a dangling
	// batch that only reaches the bufio buffer.
	all, _ := writeSession(t, w, rng, 0, 2, 30)
	if err := w.Batch(testEvents(rng, 10), 0); err != nil {
		t.Fatal(err)
	}
	w.Abandon()

	// Writer is dead: every further call is a silent no-op.
	if err := w.Batch(testEvents(rng, 5), 0); err != nil {
		t.Fatalf("append on abandoned journal: %v", err)
	}

	var rec recording
	w2, st, _, err := Recover(opts, 31, &rec)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	w2.Abandon()
	if st.Interval != 2 || st.Observed != uint64(len(all)) {
		t.Fatalf("recovered %+v, want the two synced intervals (%d events)", st, len(all))
	}
}

// TestJournalMetrics checks the byte and fsync hooks fire.
func TestJournalMetrics(t *testing.T) {
	var bytes int64
	var syncs int
	opts := Options{
		Dir:      t.TempDir(),
		Sync:     SyncBatch,
		OnAppend: func(n int64) { bytes += n },
		OnSync:   func() { syncs++ },
	}
	w, err := Create(opts, testMeta(41, false))
	if err != nil {
		t.Fatal(err)
	}
	writeSession(t, w, rand.New(rand.NewSource(9)), 0, 2, 20)
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	// Creation, 2×2 batches, 2 boundaries, end: 8 fsyncs.
	if syncs != 8 {
		t.Fatalf("fsyncs = %d, want 8", syncs)
	}
	if bytes == 0 {
		t.Fatal("no bytes accounted")
	}
	dir := filepath.Join(opts.Dir, "session-41")
	segs, _ := segIndexes(dir)
	var onDisk int64
	for _, idx := range segs {
		fi, err := os.Stat(segPath(dir, idx))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	// On-disk = headers + records + terminator/footer; OnAppend counts
	// records only.
	if bytes >= onDisk {
		t.Fatalf("accounted %d bytes, on disk %d", bytes, onDisk)
	}
}

// snapshotDir captures every file's bytes under a session directory so a
// read-only pass can be proven to have modified nothing.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[path] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestJournalReplayReadOnly proves Replay delivers the same history
// Recover would — including stopping at a torn tail — while leaving every
// byte on disk untouched, and that it replays cleanly ended journals
// Recover skips.
func TestJournalReplayReadOnly(t *testing.T) {
	dir := t.TempDir()
	var torn *faultinject.TornWriter
	opts := Options{
		Dir:  dir,
		Sync: SyncBatch,
		Open: func(path string) (File, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				return nil, err
			}
			torn = &faultinject.TornWriter{W: f, After: 901}
			return struct {
				*faultinject.TornWriter
				syncCloser
			}{torn, syncCloser{f}}, nil
		},
	}
	w, err := Create(opts, testMeta(21, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	writeSession(t, w, rng, 0, 10, 40)
	if !torn.Torn() {
		t.Fatal("tear point never crossed; raise the write volume")
	}
	w.Abandon()

	before := snapshotDir(t, dir)
	var rep recording
	st, stats, err := Replay(opts2(dir), 21, &rep)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.TornSegments != 1 {
		t.Fatalf("replay stats = %+v, want one torn segment", stats)
	}
	after := snapshotDir(t, dir)
	if len(before) != len(after) {
		t.Fatalf("replay changed the file set: %d files before, %d after", len(before), len(after))
	}
	for path, b := range before {
		if string(b) != string(after[path]) {
			t.Fatalf("replay modified %s", path)
		}
	}

	// Recover over the untouched directory must see the identical history.
	var rec recording
	w2, st2, _, err := Recover(opts2(dir), 21, &rec)
	if err != nil {
		t.Fatalf("recover after replay: %v", err)
	}
	w2.Abandon()
	if st.Interval != st2.Interval || st.Observed != st2.Observed || st.Shed != st2.Shed {
		t.Fatalf("replay position %+v, recover position %+v", st, st2)
	}
	if len(rep.events()) != len(rec.events()) || len(rep.boundaries) != len(rec.boundaries) {
		t.Fatalf("replay saw %d events / %d boundaries, recover saw %d / %d",
			len(rep.events()), len(rep.boundaries), len(rec.events()), len(rec.boundaries))
	}

	// A cleanly ended journal: Recover skips it entirely (nil writer, no
	// handler calls); Replay still delivers the full history to readers.
	dir2 := t.TempDir()
	w3, err := Create(opts2(dir2), testMeta(22, false))
	if err != nil {
		t.Fatal(err)
	}
	events, _ := writeSession(t, w3, rng, 0, 4, 25)
	if err := w3.End(); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	var skipped recording
	wEnded, _, _, err := Recover(opts2(dir2), 22, &skipped)
	if err != nil || wEnded != nil || skipped.started {
		t.Fatalf("recover of an ended journal: w=%v started=%v err=%v", wEnded, skipped.started, err)
	}
	var full recording
	st3, _, err := Replay(opts2(dir2), 22, &full)
	if err != nil {
		t.Fatalf("replay of an ended journal: %v", err)
	}
	if len(full.events()) != len(events) || st3.Interval != 4 {
		t.Fatalf("ended-journal replay saw %d events to interval %d, want %d to 4",
			len(full.events()), st3.Interval, len(events))
	}
}

// TestJournalDroppedSegments corrupts the middle segment of a three-segment
// Retain journal: Replay and Recover must deliver the same prefix and
// position, both counting the later segment as dropped, while only
// Recover deletes it.
func TestJournalDroppedSegments(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Sync: SyncInterval, SegmentBytes: 2048}
	w, err := Create(opts, testMeta(23, true))
	if err != nil {
		t.Fatal(err)
	}
	writeSession(t, w, rand.New(rand.NewSource(9)), 0, 24, 60)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(opts.Dir, "session-23")
	if segs, err := segIndexes(dir); err != nil || !reflect.DeepEqual(segs, []int{1, 2, 3}) {
		t.Fatalf("segments %v (err %v), want [1 2 3]", segs, err)
	}
	seg2 := segPath(dir, 2)
	b, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(seg2, b, 0o644); err != nil {
		t.Fatal(err)
	}

	before := snapshotDir(t, dir)
	var rep recording
	st, stats, err := Replay(opts, 23, &rep)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.DroppedSegments != 1 {
		t.Fatalf("replay stats = %+v, want one dropped segment", stats)
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("replay modified the journal")
	}

	var rec recording
	w2, st2, stats2, err := Recover(opts, 23, &rec)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	w2.Abandon()
	if stats2.DroppedSegments != 1 {
		t.Fatalf("recover stats = %+v, want one dropped segment", stats2)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("replay position %+v, recover position %+v", st, st2)
	}
	if !reflect.DeepEqual(rep.batches, rec.batches) || !reflect.DeepEqual(rep.boundaries, rec.boundaries) {
		t.Fatalf("replay saw %d batches / %d boundaries, recover saw %d / %d",
			len(rep.batches), len(rep.boundaries), len(rec.batches), len(rec.boundaries))
	}
	if st.Interval >= 24 || len(rep.boundaries) == 0 {
		t.Fatalf("replay stopped at interval %d with %d boundaries; the corruption was not in the replayed history", st.Interval, len(rep.boundaries))
	}
	if segs, err := segIndexes(dir); err != nil || !reflect.DeepEqual(segs, []int{1, 2}) {
		t.Fatalf("after recover: segments %v (err %v), want [1 2]", segs, err)
	}
}

// TestJournalRefusesOtherVersions: a segment at any other format version
// is refused before any of its records is replayed. A v3 segment's batch
// records hold the wire codec's earlier batches without a base tuple, which
// the current codec would misread.
func TestJournalRefusesOtherVersions(t *testing.T) {
	for _, v := range []byte{Version - 1, Version + 1} {
		opts := Options{Dir: t.TempDir(), Sync: SyncInterval}
		w, err := Create(opts, testMeta(5, false))
		if err != nil {
			t.Fatal(err)
		}
		writeSession(t, w, rand.New(rand.NewSource(4)), 0, 1, 30)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg := segPath(filepath.Join(opts.Dir, "session-5"), 1)
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		b[len(Magic)] = v
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var rec recording
		if _, _, err := Replay(opts, 5, &rec); err == nil || rec.started {
			t.Fatalf("version %d segment: replay err %v, started %v; want a refusal before any record", v, err, rec.started)
		}
	}
}

// TestRecoverReopensFinishedSegment covers a crash inside a rotation,
// after segment k is finished and before segment k+1's header is durable:
// the finished segment k is then the last one kept, and Recover must
// reopen it before its terminator and footer. A boundary journaled after
// that recovery must survive the next one, whether or not it rotates
// again. Retain sessions keep every segment, so the torn successor is cut
// to 3 bytes; Retain-off sessions delete their prefix only once the
// successor exists, so the successor's creation fails instead.
func TestRecoverReopensFinishedSegment(t *testing.T) {
	// interval journals one batch of nev events and the boundary closing
	// interval i.
	interval := func(w *Writer, rng *rand.Rand, i, nev int) error {
		if err := w.Batch(testEvents(rng, nev), 0); err != nil {
			return err
		}
		prof := wire.AppendProfile(nil, wire.ProfileMsg{
			Index:  uint64(i),
			Counts: map[event.Tuple]uint64{{A: uint64(i), B: 1}: uint64(nev)},
		})
		return w.Boundary(uint64(i), 0, prof, [][]byte{prof})
	}
	for _, retain := range []bool{true, false} {
		for _, segBytes := range []int64{2048, 1 << 20} {
			t.Run(fmt.Sprintf("retain=%v/segment=%d", retain, segBytes), func(t *testing.T) {
				opts := Options{Dir: t.TempDir(), Sync: SyncInterval, SegmentBytes: 2048}
				dir := filepath.Join(opts.Dir, "session-31")
				if !retain {
					opts.Open = func(path string) (File, error) {
						if path != segPath(dir, 1) {
							return nil, faultinject.ErrInjected
						}
						return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
					}
				}
				w, err := Create(opts, testMeta(31, retain))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				if retain {
					writeSession(t, w, rng, 0, 24, 60)
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					segs, err := segIndexes(dir)
					if err != nil || len(segs) < 2 {
						t.Fatalf("segments %v (err %v), want a rotated journal", segs, err)
					}
					if err := os.Truncate(segPath(dir, segs[len(segs)-1]), 3); err != nil {
						t.Fatal(err)
					}
				} else {
					for i := 0; ; i++ {
						err := interval(w, rng, i, 60)
						if errors.Is(err, faultinject.ErrInjected) {
							break
						}
						if err != nil || i == 100 {
							t.Fatalf("interval %d: err %v, want the rotation to fail", i, err)
						}
					}
					w.Abandon()
				}

				ropts := Options{Dir: opts.Dir, Sync: SyncInterval, SegmentBytes: segBytes}
				w2, st, _, err := Recover(ropts, 31, &recording{})
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if err := interval(w2, rng, int(st.Interval), 2); err != nil {
					t.Fatalf("boundary %d after recovery: %v", st.Interval, err)
				}
				if err := w2.Close(); err != nil {
					t.Fatal(err)
				}
				w3, st2, _, err := Recover(ropts, 31, &recording{})
				if err != nil {
					t.Fatalf("second recover: %v", err)
				}
				w3.Abandon()
				if st2.Interval != st.Interval+1 || st2.Observed != st.Observed+2 {
					t.Fatalf("second recovery at %+v, want interval %d and %d observed: boundary %d was durable",
						st2, st.Interval+1, st.Observed+2, st.Interval)
				}
			})
		}
	}
}
