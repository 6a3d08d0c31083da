package client

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// Script ops for runResume, one byte each.
const (
	opObserve = iota // observe op>>2 more events
	opFlush
	opMark    // Mark on a marked session, Flush otherwise
	opProfile // the daemon sends its next profile, if it has consumed that interval
)

// observeOp is the op that observes n more events (n < 64).
func observeOp(n int) byte { return byte(n<<2) | opObserve }

// resumeScript is one run of runResume: a resumable session that sends
// ops, then drains, over a link cut exactly once.
type resumeScript struct {
	marked    bool
	batchSize int
	ops       []byte

	// cut is the op the link breaks before, once the daemon has read
	// everything sent; cut == len(ops) breaks it after the drain, which
	// the first daemon never answers.
	cut int

	// pos and intervals pick the resumed daemon's position, within
	// [the last profile's boundary, everything it read], and its interval
	// count, among those the marks at that position allow.
	pos, intervals int
}

// decodeScript reads a script from fuzz input: a flags byte (bit 0 marked,
// bits 1–3 batch size − 1), the cut, the position and interval picks, then
// up to 64 ops.
func decodeScript(data []byte) (resumeScript, bool) {
	if len(data) < 4 {
		return resumeScript{}, false
	}
	sc := resumeScript{
		marked:    data[0]&1 != 0,
		batchSize: 1 + int(data[0]>>1)%8,
		pos:       int(data[2]),
		intervals: int(data[3]),
		ops:       data[4:min(len(data), 4+64)],
	}
	sc.cut = int(data[1]) % (len(sc.ops) + 1)
	return sc, true
}

// resumeInterval is the unmarked scripts' interval length: short enough
// that a script completes several intervals.
const resumeInterval = 16

// resumeDaemon is the daemon side of runResume. Its first attachment acks
// the Hello and reads every frame; its second acks the Resume at the
// script's position and checks that the session resends the first
// attachment's frames past it as they were sent, re-encoding only a cut
// batch's tail. Across both it reassembles the stream the daemon consumed.
type resumeDaemon struct {
	fakeDaemon
	sc resumeScript

	mu       sync.Mutex
	cond     *sync.Cond
	reading  bool          // an attachment is reading frames
	events   []event.Tuple // the consumed stream
	marks    []uint64      // the stream position of each consumed mark, by index
	drains   int           // drains read since the resume
	first    []frame       // the first attachment's frames, as it read them
	wc1      *wire.Conn    // the first attachment, for sending profiles
	profiles uint64        // profiles sent before the cut
	floor    uint64        // the stream position the last profile proves consumed
	ack      wire.ResumeAck
	midFrame bool // the ack's position fell inside a batch
	drainCut bool // the first attachment read the drain
}

// stopReading marks the current attachment done reading, waking every
// wait on it.
func (d *resumeDaemon) stopReading() {
	d.mu.Lock()
	d.reading = false
	d.cond.Broadcast()
	d.mu.Unlock()
}

// recordLocked appends one consumed frame to the reassembled stream.
func (d *resumeDaemon) recordLocked(typ byte, payload []byte) error {
	switch typ {
	case wire.MsgBatch:
		tuples, err := wire.DecodeBatch(payload, nil)
		if err != nil {
			return err
		}
		d.events = append(d.events, tuples...)
	case wire.MsgMark:
		m, err := wire.DecodeMark(payload)
		if err != nil {
			return err
		}
		if m.Index != uint64(len(d.marks)) {
			return fmt.Errorf("mark %d arrived after %d marks", m.Index, len(d.marks))
		}
		d.marks = append(d.marks, uint64(len(d.events)))
	case wire.MsgDrain:
		d.drains++
	default:
		return fmt.Errorf("unexpected frame type %d", typ)
	}
	d.cond.Broadcast()
	return nil
}

func (d *resumeDaemon) attachFirst(wc *wire.Conn) error {
	d.mu.Lock()
	d.reading, d.wc1 = true, wc
	d.mu.Unlock()
	defer d.stopReading()
	if err := helloAck(wc); err != nil {
		return err
	}
	for {
		typ, payload, err := wc.ReadFrame()
		if err != nil {
			return nil // the cut
		}
		d.mu.Lock()
		f := frame{typ: typ, pos: uint64(len(d.events)), payload: slices.Clone(payload)}
		err = d.recordLocked(typ, payload)
		f.end = uint64(len(d.events))
		if typ == wire.MsgMark {
			f.index = uint64(len(d.marks)) - 1
		}
		d.first = append(d.first, f)
		d.drainCut = typ == wire.MsgDrain
		d.mu.Unlock()
		if err != nil || typ == wire.MsgDrain {
			return err // hang up on the drain: the cut after it
		}
	}
}

func (d *resumeDaemon) attachResumed(wc *wire.Conn) error {
	payload, err := expect(wc, wire.MsgResume)
	if err != nil {
		return err
	}
	r, err := wire.DecodeResume(payload)
	if err != nil {
		return err
	}
	d.mu.Lock()
	for d.reading {
		d.cond.Wait() // the first attachment is still reading
	}
	want, err := d.resumeLocked(r)
	d.reading = true
	ack := d.ack
	d.mu.Unlock()
	defer d.stopReading()
	if err != nil {
		return err
	}
	if err := wc.WriteFrame(wire.MsgResumeAck, wire.AppendResumeAck(nil, ack)); err != nil {
		return err
	}
	var replies sync.WaitGroup
	defer replies.Wait()
	for n := 0; ; n++ {
		typ, payload, err := wc.ReadFrame()
		if err != nil {
			return nil // the session hung up after the goodbye
		}
		if n < len(want) && (typ != want[n].typ || !bytes.Equal(payload, want[n].payload)) {
			return fmt.Errorf("resent frame %d (type %d, %d bytes) differs from the logged frame (type %d, %d bytes)",
				n, typ, len(payload), want[n].typ, len(want[n].payload))
		}
		d.mu.Lock()
		err = d.recordLocked(typ, payload)
		drains := d.drains
		d.mu.Unlock()
		if err != nil {
			return err
		}
		if typ == wire.MsgDrain && drains == 1 {
			replies.Add(1)
			go func() {
				defer replies.Done()
				if err := sendProfile(wc, ack.Intervals, true); err == nil {
					wc.WriteFrame(wire.MsgGoodbye, nil)
				}
			}()
		}
	}
}

// resumeLocked validates r, picks the ack's position and interval count,
// rewinds the reassembled stream to them, and returns the frames the
// session must resend first: the first attachment's frames past the ack,
// a cut batch reduced to its tail.
func (d *resumeDaemon) resumeLocked(r wire.Resume) ([]frame, error) {
	if r.SessionID != 7 || r.Intervals != d.profiles || r.Floor > d.floor {
		return nil, fmt.Errorf("resume %+v after %d profiles proving %d events consumed", r, d.profiles, d.floor)
	}
	lo, hi := d.floor, uint64(len(d.events))
	pos := lo + uint64(d.sc.pos)%(hi-lo+1)
	intervals := pos / resumeInterval
	if d.sc.marked {
		before, at := 0, 0
		for _, p := range d.marks {
			if p < pos {
				before++
			}
			if p <= pos {
				at++
			}
		}
		intervals = max(uint64(before+d.sc.intervals%(at-before+1)), d.profiles)
	}
	d.ack = wire.ResumeAck{Intervals: intervals, StreamPos: pos}
	if !d.sc.marked {
		d.ack.Offset, d.ack.IntervalLength = pos%resumeInterval, resumeInterval
		d.ack.TotalEntries, d.ack.NumTables, d.ack.Shards = 256, 4, 1
	}
	var want []frame
	for _, f := range d.first {
		switch {
		case f.typ == wire.MsgMark && f.index < intervals,
			f.typ == wire.MsgBatch && f.end <= pos:
			continue
		case f.typ == wire.MsgBatch && f.pos < pos:
			d.midFrame = true
			f.payload = wire.AppendBatch(nil, d.events[pos:f.end])
		}
		want = append(want, f)
	}
	d.events, d.drains = d.events[:pos], 0
	if d.sc.marked {
		d.marks = d.marks[:intervals]
	}
	return want, nil
}

// waitLocked waits until cond holds or the daemon stopped reading.
func (d *resumeDaemon) waitLocked(cond func() bool) {
	for d.reading && !cond() {
		d.cond.Wait()
	}
}

// resumeResult is what runResume observed at the resume.
type resumeResult struct {
	ack      wire.ResumeAck
	midFrame bool
	drainCut bool
}

// runResume runs sc through the real Flush, Mark, Drain and resume, and
// fails unless the daemon's reassembled stream — events, mark positions
// and one drain — equals what the session sent, with nothing skipped or
// repeated, and the resent frames are the logged ones.
func runResume(t *testing.T, sc resumeScript) resumeResult {
	t.Helper()
	d := &resumeDaemon{fakeDaemon: fakeDaemon{t: t}, sc: sc}
	d.script = []func(*wire.Conn) error{d.attachFirst, d.attachResumed}
	d.cond = sync.NewCond(&d.mu)
	cfg := core.BestMultiHash(core.ShortIntervalConfig())
	cfg.IntervalLength = resumeInterval
	cfg.TotalEntries, cfg.NumTables = 256, 4
	s, err := Dial("fake", cfg, Options{Reconnect: true, Marked: sc.marked, BatchSize: sc.batchSize,
		Link: wire.Link{BackoffBase: time.Microsecond, BackoffMax: time.Microsecond, Dialer: d.dial}})
	if err != nil {
		t.Fatal(err)
	}
	// A session that stalls — a frame never resent, a drain never
	// answered — is closed, which unblocks every wait below.
	var stalled atomic.Bool
	watchdog := time.AfterFunc(10*time.Second, func() {
		stalled.Store(true)
		s.Close()
	})
	err = sc.run(s, d)
	watchdog.Stop()
	s.Close()
	d.wg.Wait() // the daemon reports its own findings
	if stalled.Load() {
		err = fmt.Errorf("stalled for 10s: %v", err)
	}
	if err != nil {
		t.Fatalf("script %+v: %v", sc, err)
	}
	return resumeResult{ack: d.ack, midFrame: d.midFrame, drainCut: d.drainCut}
}

func (sc resumeScript) run(s *Session, d *resumeDaemon) error {
	var sent []event.Tuple
	var marks []uint64
	// synced waits until the daemon has read everything sent.
	synced := func() {
		s.mu.Lock()
		pos := s.sentPos
		s.mu.Unlock()
		d.mu.Lock()
		d.waitLocked(func() bool { return uint64(len(d.events)) == pos && len(d.marks) == len(marks) })
		d.mu.Unlock()
	}
	for i, op := range sc.ops {
		if i == sc.cut {
			synced()
			s.mu.Lock()
			conn := s.conn
			s.mu.Unlock()
			conn.Close()
		}
		var err error
		switch op & 3 {
		case opObserve:
			for n := 0; n < int(op>>2); n++ {
				tp := event.Tuple{A: uint64(len(sent)), B: 1}
				sent = append(sent, tp)
				if err = s.Observe(tp); err != nil {
					break
				}
			}
		case opMark:
			if sc.marked {
				marks = append(marks, uint64(len(sent)))
				err = s.Mark()
				break
			}
			fallthrough
		case opFlush:
			err = s.Flush()
		case opProfile:
			if i < sc.cut {
				err = sc.profile(s, d, synced)
			}
		}
		if err != nil {
			return fmt.Errorf("op %d (%#x): %w", i, op, err)
		}
	}
	if _, err := s.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.waitLocked(func() bool { return false }) // until the daemon stops reading
	switch {
	case d.dials.Load() != 2:
		return fmt.Errorf("%d dials, want the first and one resume", d.dials.Load())
	case !slices.Equal(d.events, sent):
		return fmt.Errorf("daemon consumed %d events, want the %d sent, in order, once each", len(d.events), len(sent))
	case !slices.Equal(d.marks, marks):
		return fmt.Errorf("daemon consumed marks at %v, want %v", d.marks, marks)
	case d.drains != 1:
		return fmt.Errorf("daemon read %d drains after the resume, want 1", d.drains)
	}
	return nil
}

// profile has the first daemon send its next profile if it has consumed
// that interval, and waits for the session to admit it.
func (sc resumeScript) profile(s *Session, d *resumeDaemon, synced func()) error {
	synced()
	d.mu.Lock()
	idx, wc := d.profiles, d.wc1
	var floor uint64
	var ok bool
	if sc.marked {
		if ok = uint64(len(d.marks)) > idx; ok {
			floor = d.marks[idx]
		}
	} else {
		floor = (idx + 1) * resumeInterval
		ok = uint64(len(d.events)) >= floor
	}
	if ok {
		d.profiles, d.floor = idx+1, floor
	}
	d.mu.Unlock()
	if !ok {
		return nil
	}
	if err := sendProfile(wc, idx, false); err != nil {
		return err
	}
	if p := <-s.Profiles(); p.Index != idx {
		return fmt.Errorf("profile index %d, want %d", p.Index, idx)
	}
	return nil
}

// FuzzResume drives a resumable session through a script of observes,
// flushes, marks and profiles with one cut, the resumed daemon acking any
// position from the last profile's boundary to everything it read, mid-frame included.
// The stream the daemon consumes must be exactly the one the session sent.
func FuzzResume(f *testing.F) {
	// A mid-frame ack after a prune: batches of 4, profile 0 prunes
	// [0, 16), and the daemon resumes at 26, inside [24, 28).
	f.Add([]byte{3 << 1, 4, 10, 0, observeOp(20), opProfile, observeOp(10), opFlush})
	// Two marks at one position, cut between them; the daemon resumes
	// at that position having consumed neither.
	f.Add([]byte{1 | 3<<1, 2, 6, 0, observeOp(6), opMark, opMark, observeOp(3)})
	// A drain sent just before the cut.
	f.Add([]byte{3 << 1, 1, 0, 0, observeOp(10)})
	// A marked session whose profile 0 prunes through mark 0 only.
	f.Add([]byte{1 | 3<<1, 5, 0, 0, observeOp(5), opMark, observeOp(5), opMark, opProfile, observeOp(2)})
	f.Fuzz(func(t *testing.T, data []byte) {
		if sc, ok := decodeScript(data); ok {
			runResume(t, sc)
		}
	})
}

// TestResumeResendsCutFrameTail: a daemon that acks a stream position
// inside a logged batch reads exactly that batch's tail next, and every
// later frame byte-identical to how it was first sent.
func TestResumeResendsCutFrameTail(t *testing.T) {
	res := runResume(t, resumeScript{batchSize: 4, cut: 4, pos: 10,
		ops: []byte{observeOp(20), opProfile, observeOp(10), opFlush}})
	if !res.midFrame || res.ack.StreamPos != 26 {
		t.Fatalf("resumed at %d (inside a frame: %v), want 26, inside [24, 28)", res.ack.StreamPos, res.midFrame)
	}
}

// TestResumeReplaysMarksAtOnePosition: a marked session places two marks
// at one position — an empty interval — and is cut between them. The
// daemon resumes at that position with neither consumed, and both marks
// arrive, in order, at that position.
func TestResumeReplaysMarksAtOnePosition(t *testing.T) {
	res := runResume(t, resumeScript{marked: true, batchSize: 4, cut: 2, pos: 6,
		ops: []byte{observeOp(6), opMark, opMark, observeOp(3)}})
	if res.ack.StreamPos != 6 || res.ack.Intervals != 0 {
		t.Fatalf("resumed at %d after %d intervals, want 6 after 0", res.ack.StreamPos, res.ack.Intervals)
	}
}

// TestResumeResendsDrainOnce: a drain sent just before a cut is resent
// exactly once.
func TestResumeResendsDrainOnce(t *testing.T) {
	if res := runResume(t, resumeScript{batchSize: 4, cut: 1, ops: []byte{observeOp(10)}}); !res.drainCut {
		t.Fatal("the first daemon never read the drain")
	}
}

// TestFlushAfterPruneAllocatesNothing: once a profile has pruned the log,
// a resumable session's Flush encodes into a pruned frame's buffer and
// logs the frame in the log's spare capacity, so neither it nor the
// daemon reading the frame allocates.
func TestFlushAfterPruneAllocatesNothing(t *testing.T) {
	cfg := testConfig()
	const batch, runs = 10, 50
	f := &fakeDaemon{t: t}
	f.script = []func(*wire.Conn) error{func(wc *wire.Conn) error {
		if err := helloAck(wc); err != nil {
			return err
		}
		if err := readEvents(wc, cfg.IntervalLength); err != nil {
			return err
		}
		if err := sendProfile(wc, 0, false); err != nil {
			return err
		}
		for {
			if _, _, err := wc.ReadFrame(); err != nil {
				return nil
			}
		}
	}}
	s, err := Dial("fake", cfg, Options{Reconnect: true, BatchSize: batch, Link: wire.Link{Dialer: f.dial}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	observe(t, s, cfg.IntervalLength)
	if p := <-s.Profiles(); p.Index != 0 {
		t.Fatalf("profile index %d, want 0", p.Index)
	}
	s.mu.Lock()
	logged := len(s.log)
	s.mu.Unlock()
	if logged != 0 {
		t.Fatalf("%d frames logged after profile 0 proved all %d events consumed", logged, cfg.IntervalLength)
	}
	tuples := make([]event.Tuple, batch)
	if n := testing.AllocsPerRun(runs, func() {
		s.pending = append(s.pending, tuples...)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Flush after a prune: %v allocations, want 0", n)
	}
}
