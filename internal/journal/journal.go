// Package journal makes sessions crash-durable: every accepted session
// mirrors its admitted configuration, each accepted batch in acceptance
// order, every interval boundary it closed (with the emitted profile
// frame — the ack that the client may have seen it), and its clean end
// into a per-session write-ahead journal. After a process kill, the
// daemon replays each journal's unacked suffix through a fresh engine and
// re-parks the session, so a reconnecting client's Resume continues
// bit-identically where the crashed process left off.
//
// # Format
//
// A journal is a directory of segment files reusing the trace layer's
// CRC-per-block framing (trace.BlockWriter/ScanBlocks): each segment is a
// 6-byte header — magic "HWPJ", format version, a zero pad — followed by
// CRC-framed blocks, one record per block. Rotated-away segments carry
// the terminator+footer; the active segment does not, and a crash tears
// at most its final frame, which recovery truncates at the last valid
// CRC. Records are:
//
//	meta     session identity: id, publish base, tenant key, the admitted
//	         Hello (config, post-clamp shards, marked) re-encoded with
//	         the wire codec — first record of every segment. A segment
//	         opened after a resize carries the CURRENT geometry, so a
//	         checkpoint entry point always builds the right engine.
//	state    checkpoint at rotation: interval, observed events, shed
//	         count, and the resume ring length (ring entries follow as
//	         ring records)
//	ring     one retained encoded profile frame (follows state)
//	batch    cumulative shed count + the events, wire batch codec
//	boundary interval index, cumulative shed, and the encoded profile
//	         frame written to the client for it
//	resize   an elastic geometry change committed at the preceding
//	         boundary: the session's new Hello. Replay rebuilds a fresh
//	         engine from it — a resize IS a fresh-engine restart point by
//	         construction, for every policy combination, because the old
//	         engine (retained candidates included) is discarded outright.
//	end      clean end: the client got its final profile and goodbye;
//	         there is nothing to recover
//
// # Replay soundness and truncation
//
// Replaying a suffix of the batch history through a fresh engine is only
// bit-identical if the suffix starts where engine state is empty. With
// Retain off, every interval boundary is such a point: the accumulator is
// cleared wholesale and the counters flush, so the engine after boundary
// k equals a fresh engine (insertion sequence numbers differ in absolute
// value but only their relative order — identical within any interval —
// is ever compared). With Retain on, above-threshold entries survive
// boundaries with their ages, so only the full history from the session's
// first batch replays bit-identically. Segment rotation therefore
// truncates acked prefixes — deletes segments before the checkpoint —
// only for Retain-off sessions; Retain sessions rotate (bounding segment
// size) but keep their history until the session ends cleanly, when the
// whole journal is removed.
//
// # Sync policy
//
// SyncNone buffers records in process memory: fastest, but a crash loses
// the buffered tail and a client that already pruned past it cannot
// resume. SyncInterval makes every boundary record — and with it every
// record before it — durable (flush + fsync) before the profile frame is
// written to the client: a completed interval the client saw is always
// recoverable, and mid-interval batches lost to a crash are still in the
// client's replay buffer, so recovery stays bit-identical for blocking
// sessions. SyncBatch additionally fsyncs every batch record: nothing
// accepted is ever lost, at one fsync per batch. Rotation barriers
// (checkpoint before any deletion) are fsynced under every policy.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hwprof/internal/event"
	"hwprof/internal/trace"
	"hwprof/internal/wire"
)

// Magic identifies a hwprof session-journal segment.
const Magic = "HWPJ"

// Version is the journal format version. v2 added the tenant key to the
// meta record and the resize record; v1 journals are refused (recovery
// across a daemon upgrade is not a supported path — drain before
// upgrading).
const Version = 2

// DefaultSegmentBytes is the rotation threshold for journal segments.
const DefaultSegmentBytes = 8 << 20

// batchChunk bounds events per batch record so every record fits the
// block layer's payload limit (worst-case varint encoding ≈ 20 B/event).
const batchChunk = 1024

// ErrCorrupt reports a journal whose surviving bytes are inconsistent —
// framing intact but records that contradict each other or the session
// they claim to describe.
var ErrCorrupt = errors.New("journal: corrupt journal")

// Record types.
const (
	recMeta = iota + 1
	recState
	recRing
	recBatch
	recBoundary
	recEnd
	recResize
)

// SyncPolicy selects the journal's durability barrier.
type SyncPolicy int

const (
	// SyncNone issues no explicit flush or fsync outside rotation and
	// clean close; a crash loses the buffered tail.
	SyncNone SyncPolicy = iota
	// SyncInterval flushes and fsyncs at every interval boundary, before
	// the profile frame reaches the client.
	SyncInterval
	// SyncBatch flushes and fsyncs every record.
	SyncBatch
)

// ParseSync parses the -journal-sync flag value.
func ParseSync(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "interval":
		return SyncInterval, nil
	case "batch":
		return SyncBatch, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want none, interval or batch)", s)
}

// String names the policy the way the flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncBatch:
		return "batch"
	default:
		return "none"
	}
}

// File is the journal's requirement of a segment file. *os.File satisfies
// it; tests substitute fault injectors.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a journal directory.
type Options struct {
	// Dir is the journal root; each session owns a subdirectory.
	Dir string

	// Sync is the durability barrier policy.
	Sync SyncPolicy

	// SegmentBytes rotates the active segment once it grows past this
	// size (at the next boundary); 0 selects DefaultSegmentBytes.
	SegmentBytes int64

	// Open creates a fresh segment file at path; nil selects os.OpenFile
	// with O_CREATE|O_EXCL. Tests inject failing files here.
	Open func(path string) (File, error)

	// OnAppend, if non-nil, observes every record append with its framed
	// size in bytes.
	OnAppend func(bytes int64)

	// OnSync, if non-nil, observes every fsync issued.
	OnSync func()
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Open == nil {
		o.Open = func(path string) (File, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		}
	}
	return o
}

// Meta is the session identity a journal records: enough to rebuild the
// admitted session — engine and feed membership — from nothing.
type Meta struct {
	// SessionID is the daemon-assigned session id; the recovered session
	// keeps it so the client's Resume finds it.
	SessionID uint64

	// Hello is the admitted session shape: config, post-clamp shard
	// count, marked flag — exactly what the engine was built from. After
	// a resize it tracks the CURRENT geometry (Writer.Resize updates it),
	// so checkpoint segments always describe the engine they continue.
	Hello wire.Hello

	// Pub reports that the session publishes into the epoch feed;
	// PubBase is the fleet epoch its interval 0 maps to. Recovery rejoins
	// the feed at PubBase so replayed intervals re-pin the same epochs.
	Pub     bool
	PubBase uint64

	// Tenant is the admission tenant key (the client's host), so recovery
	// can re-account the session against the right per-tenant cost quota.
	Tenant string
}

// restartable reports whether interval boundaries are fresh-engine
// restart points, making acked-prefix truncation sound (see the package
// comment).
func (m Meta) restartable() bool { return !m.Hello.Config.Retain }

// State is a stream position: completed intervals, events observed into
// engines, and events shed. Ring carries the retained encoded profile
// frames at a checkpoint (oldest first); replay callbacks deliver
// post-checkpoint profiles separately.
type State struct {
	Interval uint64
	Observed uint64
	Shed     uint64
	Ring     [][]byte
}

// StreamPos is the client-stream position: observed plus shed.
func (s State) StreamPos() uint64 { return s.Observed + s.Shed }

// Stats summarizes what recovery had to repair.
type Stats struct {
	// Segments is the number of segment files read.
	Segments int
	// TornSegments counts segments whose tail was truncated at the last
	// valid CRC (a torn final write, or trailing corruption).
	TornSegments int
	// TornBytes is the total bytes discarded by those truncations.
	TornBytes int64
	// DroppedSegments counts unreadable later segments removed after a
	// mid-journal truncation.
	DroppedSegments int
}

// Handler receives a journal's records during replay, in the exact order
// the session accepted them.
type Handler interface {
	// Start delivers the session identity and the checkpoint state replay
	// begins from — the zero State for a journal with its full history.
	Start(meta Meta, state State) error
	// Batch delivers one accepted batch. The slice is reused; the handler
	// must consume it before returning.
	Batch(events []event.Tuple) error
	// Boundary delivers one closed interval: its index, the cumulative
	// shed count at the close, and the encoded profile frame the client
	// was sent for it. The frame slice is the handler's to keep.
	Boundary(index, shed uint64, profile []byte) error
	// Resize delivers an elastic geometry change committed at the
	// preceding boundary: the handler must discard its engine and build a
	// fresh one from h, exactly as the live session did.
	Resize(h wire.Hello) error
}

// sessionDir names a session's journal directory.
func sessionDir(root string, id uint64) string {
	return filepath.Join(root, fmt.Sprintf("session-%d", id))
}

// segPath names a segment file.
func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", idx))
}

// Remove deletes a session's journal.
func Remove(root string, id uint64) error {
	return os.RemoveAll(sessionDir(root, id))
}

// ScanDir lists the session ids with journals under root, sorted.
func ScanDir(root string) ([]uint64, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: scanning %s: %w", root, err)
	}
	var ids []uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "session-")
		if !ok {
			continue
		}
		id, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Writer appends one session's records. All methods are safe for the
// worker goroutine against a concurrent Abandon (crash simulation) or
// Close from a teardown path.
type Writer struct {
	mu   sync.Mutex
	opts Options
	meta Meta
	dir  string

	f        File
	bufw     *bufio.Writer
	bw       *trace.BlockWriter
	seg      int
	segBytes int64

	interval uint64
	observed uint64
	shed     uint64

	buf    []byte
	dead   bool
	closed bool
}

// Create opens a fresh journal for a session, replacing any leftover
// directory with the same id, and makes the meta record durable.
func Create(opts Options, meta Meta) (*Writer, error) {
	opts = opts.withDefaults()
	dir := sessionDir(opts.Dir, meta.SessionID)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("journal: clearing %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	w := &Writer{opts: opts, meta: meta, dir: dir}
	if err := w.openSegment(1, nil, false); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment starts segment idx with its header and meta record — plus,
// for a rotation checkpoint, the state and ring records — and makes them
// durable. Callers hold the lock (or own the writer exclusively).
func (w *Writer) openSegment(idx int, ring [][]byte, checkpoint bool) error {
	f, err := w.opts.Open(segPath(w.dir, idx))
	if err != nil {
		return fmt.Errorf("journal: creating segment %d: %w", idx, err)
	}
	w.f = f
	w.bufw = bufio.NewWriterSize(f, 1<<16)
	w.bw = trace.NewBlockWriter(w.bufw)
	w.seg = idx
	w.segBytes = 0
	if _, err := w.bufw.WriteString(Magic); err != nil {
		return fmt.Errorf("journal: segment header: %w", err)
	}
	if err := w.bufw.WriteByte(Version); err != nil {
		return fmt.Errorf("journal: segment header: %w", err)
	}
	if err := w.bufw.WriteByte(0); err != nil {
		return fmt.Errorf("journal: segment header: %w", err)
	}
	if err := w.append(encodeMeta(w.buf[:0], w.meta)); err != nil {
		return err
	}
	if checkpoint {
		if err := w.append(encodeState(w.buf[:0], State{Interval: w.interval, Observed: w.observed, Shed: w.shed}, len(ring))); err != nil {
			return err
		}
		for _, p := range ring {
			w.buf = append(append(w.buf[:0], recRing), p...)
			if err := w.append(w.buf); err != nil {
				return err
			}
		}
	}
	// The segment's identity — and a checkpoint that later truncation
	// depends on — is fsynced under every policy; segment starts are rare.
	return w.flushSync()
}

// append writes one record as a block and accounts its size.
func (w *Writer) append(payload []byte) error {
	w.buf = payload // keep ownership for reuse
	if err := w.bw.Append(payload); err != nil {
		return err
	}
	n := trace.FrameLen(len(payload))
	w.segBytes += n
	if w.opts.OnAppend != nil {
		w.opts.OnAppend(n)
	}
	return nil
}

// flushSync pushes buffered records to the OS and through it to the
// device.
func (w *Writer) flushSync() error {
	if err := w.bufw.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if w.opts.OnSync != nil {
		w.opts.OnSync()
	}
	return nil
}

// Batch journals one accepted batch (chunked to fit the block layer)
// with the cumulative shed count at acceptance.
func (w *Writer) Batch(events []event.Tuple, shed uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return nil
	}
	if w.closed {
		return errors.New("journal: batch after close")
	}
	for len(events) > 0 {
		n := len(events)
		if n > batchChunk {
			n = batchChunk
		}
		w.buf = append(w.buf[:0], recBatch)
		w.buf = binary.AppendUvarint(w.buf, shed)
		w.buf = wire.AppendBatch(w.buf, events[:n])
		if err := w.append(w.buf); err != nil {
			return err
		}
		w.observed += uint64(n)
		events = events[n:]
	}
	w.shed = shed
	if w.opts.Sync == SyncBatch {
		return w.flushSync()
	}
	return nil
}

// Boundary journals one closed interval — index, cumulative shed, and
// the encoded profile frame — making it durable under SyncInterval and
// SyncBatch before returning, so the caller may only then show the
// profile to the client. ring is the session's retained resend ring
// after this profile (used only if the segment rotates here).
func (w *Writer) Boundary(index, shed uint64, profile []byte, ring [][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return nil
	}
	if w.closed {
		return errors.New("journal: boundary after close")
	}
	if index != w.interval {
		return fmt.Errorf("journal: boundary %d out of order, journal at %d", index, w.interval)
	}
	w.buf = append(w.buf[:0], recBoundary)
	w.buf = binary.AppendUvarint(w.buf, index)
	w.buf = binary.AppendUvarint(w.buf, shed)
	w.buf = append(w.buf, profile...)
	if err := w.append(w.buf); err != nil {
		return err
	}
	w.interval = index + 1
	w.shed = shed
	if w.opts.Sync != SyncNone {
		if err := w.flushSync(); err != nil {
			return err
		}
	}
	if w.segBytes >= w.opts.SegmentBytes {
		return w.rotate(ring)
	}
	return nil
}

// Resize journals an elastic geometry change committed at the current
// boundary and makes it durable under every sync policy (resizes are rare
// and recovery must never rebuild the wrong engine shape), then adopts h
// as the session's meta Hello so later checkpoint segments describe the
// engine they continue. Call it only at an interval boundary, after that
// boundary's record.
func (w *Writer) Resize(h wire.Hello) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return nil
	}
	if w.closed {
		return errors.New("journal: resize after close")
	}
	w.buf = append(w.buf[:0], recResize)
	w.buf = wire.AppendHello(w.buf, h)
	if err := w.append(w.buf); err != nil {
		return err
	}
	w.meta.Hello = h
	return w.flushSync()
}

// rotate finishes the active segment and starts the next with a
// checkpoint. The checkpoint is durable before the old segment's footer
// lands and before any prefix is deleted, so a crash at any point leaves
// either the full old chain or a complete new entry point. Prefix
// truncation — deleting the pre-checkpoint segments — happens only for
// restartable (Retain-off) sessions.
func (w *Writer) rotate(ring [][]byte) error {
	if err := w.bw.Finish(); err != nil {
		return fmt.Errorf("journal: finishing segment %d: %w", w.seg, err)
	}
	if err := w.flushSync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("journal: closing segment %d: %w", w.seg, err)
	}
	prev := w.seg
	if err := w.openSegment(prev+1, ring, true); err != nil {
		return err
	}
	if w.meta.restartable() {
		// Delete ascending: a crash mid-loop must leave a contiguous
		// suffix (checkpoint verification would reject a gapped journal).
		for i := 1; i <= prev; i++ {
			if err := os.Remove(segPath(w.dir, i)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("journal: truncating acked prefix: %w", err)
			}
		}
	}
	return nil
}

// End journals the session's clean end and closes the journal; recovery
// treats the session as fully acked.
func (w *Writer) End() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.closed {
		return nil
	}
	w.closed = true
	if err := w.append([]byte{recEnd}); err != nil {
		return err
	}
	if err := w.bw.Finish(); err != nil {
		return err
	}
	if err := w.flushSync(); err != nil {
		return err
	}
	return w.f.Close()
}

// Close flushes and closes the journal without ending it: the segment
// stays footer-less and appendable, and recovery will replay it — the
// graceful-shutdown path for parked sessions that should survive a
// restart.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushSync(); err != nil {
		return err
	}
	return w.f.Close()
}

// Abandon drops the journal as a crash would: buffered records are
// discarded, nothing is flushed, the file handle is closed. For crash
// simulation in tests; safe against concurrent appends.
func (w *Writer) Abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.closed {
		return
	}
	w.dead = true
	w.f.Close()
}

// State returns the journal's stream position.
func (w *Writer) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return State{Interval: w.interval, Observed: w.observed, Shed: w.shed}
}

// encodeMeta builds a meta record. The tenant key rides length-prefixed
// before the Hello because the wire Hello decoder consumes the payload
// remainder exactly.
func encodeMeta(dst []byte, m Meta) []byte {
	dst = append(dst, recMeta)
	dst = binary.AppendUvarint(dst, m.SessionID)
	var flags byte
	if m.Pub {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, m.PubBase)
	dst = binary.AppendUvarint(dst, uint64(len(m.Tenant)))
	dst = append(dst, m.Tenant...)
	return wire.AppendHello(dst, m.Hello)
}

// encodeState builds a state record (ring entries follow separately).
func encodeState(dst []byte, st State, nring int) []byte {
	dst = append(dst, recState)
	dst = binary.AppendUvarint(dst, st.Interval)
	dst = binary.AppendUvarint(dst, st.Observed)
	dst = binary.AppendUvarint(dst, st.Shed)
	return binary.AppendUvarint(dst, uint64(nring))
}

// cursor decodes record payloads with a sticky error.
type cursor struct {
	p   []byte
	off int
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("%w: short record", ErrCorrupt)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.p) {
		c.err = fmt.Errorf("%w: short record", ErrCorrupt)
		return 0
	}
	b := c.p[c.off]
	c.off++
	return b
}

func (c *cursor) rest() []byte {
	if c.err != nil {
		return nil
	}
	return c.p[c.off:]
}

func decodeMeta(p []byte) (Meta, error) {
	c := cursor{p: p}
	var m Meta
	m.SessionID = c.uvarint()
	m.Pub = c.byte()&1 != 0
	m.PubBase = c.uvarint()
	tn := c.uvarint()
	if c.err != nil {
		return Meta{}, c.err
	}
	if tn > uint64(len(c.rest())) {
		return Meta{}, fmt.Errorf("%w: meta tenant length %d overruns record", ErrCorrupt, tn)
	}
	m.Tenant = string(c.rest()[:tn])
	c.off += int(tn)
	h, err := wire.DecodeHello(c.rest())
	if err != nil {
		return Meta{}, fmt.Errorf("%w: meta hello: %w", ErrCorrupt, err)
	}
	m.Hello = h
	return m, nil
}

// replayer carries the per-session replay state across segments.
type replayer struct {
	h        Handler
	meta     Meta
	metaOK   bool
	started  bool
	cur      State
	ringN    int  // ring records still expected after a state record
	ringSkip bool // the pending ring records are a mid-replay checkpoint's
	init     State
	clean    bool
	batch    []event.Tuple
}

func (r *replayer) ensureStarted() error {
	if r.started {
		return nil
	}
	if !r.metaOK {
		return fmt.Errorf("%w: records before meta", ErrCorrupt)
	}
	r.started = true
	r.cur = State{Interval: r.init.Interval, Observed: r.init.Observed, Shed: r.init.Shed}
	return r.h.Start(r.meta, r.init)
}

func (r *replayer) record(p []byte) error {
	if r.clean {
		return nil // nothing follows a clean end
	}
	if len(p) == 0 {
		return fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	typ, body := p[0], p[1:]
	if r.ringN > 0 {
		if typ != recRing {
			return fmt.Errorf("%w: expected %d more ring record(s), got type %d", ErrCorrupt, r.ringN, typ)
		}
		if !r.ringSkip {
			r.init.Ring = append(r.init.Ring, append([]byte(nil), body...))
		}
		r.ringN--
		return nil
	}
	switch typ {
	case recMeta:
		m, err := decodeMeta(body)
		if err != nil {
			return err
		}
		if r.metaOK {
			if m.SessionID != r.meta.SessionID {
				return fmt.Errorf("%w: segment meta names session %d, journal is session %d", ErrCorrupt, m.SessionID, r.meta.SessionID)
			}
			return nil
		}
		r.meta, r.metaOK = m, true
	case recState:
		c := cursor{p: body}
		st := State{Interval: c.uvarint(), Observed: c.uvarint(), Shed: c.uvarint()}
		nring := int(c.uvarint())
		if c.err != nil {
			return c.err
		}
		if !r.started {
			// Checkpoint entry point: replay begins here. Sound only
			// because rotation happens at boundaries and checkpointed
			// prefixes are deleted only for restartable sessions.
			r.init = st
			r.ringN, r.ringSkip = nring, false
			return nil
		}
		// A mid-replay checkpoint (history retained): verify, don't reset.
		if st.Interval != r.cur.Interval || st.Observed != r.cur.Observed || st.Shed != r.cur.Shed {
			return fmt.Errorf("%w: checkpoint %+v disagrees with replayed position %+v", ErrCorrupt, st, r.cur)
		}
		r.ringN, r.ringSkip = nring, true
		return nil
	case recRing:
		// Ring records outside a pending state are mid-replay checkpoint
		// leftovers; ignore.
		return nil
	case recBatch:
		if err := r.ensureStarted(); err != nil {
			return err
		}
		c := cursor{p: body}
		shed := c.uvarint()
		if c.err != nil {
			return c.err
		}
		events, err := wire.DecodeBatch(c.rest(), r.batch[:0])
		if err != nil {
			return fmt.Errorf("%w: batch record: %w", ErrCorrupt, err)
		}
		r.batch = events
		if err := r.h.Batch(events); err != nil {
			return err
		}
		r.cur.Observed += uint64(len(events))
		r.cur.Shed = shed
	case recBoundary:
		if err := r.ensureStarted(); err != nil {
			return err
		}
		c := cursor{p: body}
		index, shed := c.uvarint(), c.uvarint()
		if c.err != nil {
			return c.err
		}
		if index != r.cur.Interval {
			return fmt.Errorf("%w: boundary %d out of order, replay at %d", ErrCorrupt, index, r.cur.Interval)
		}
		if err := r.h.Boundary(index, shed, append([]byte(nil), c.rest()...)); err != nil {
			return err
		}
		r.cur.Interval = index + 1
		r.cur.Shed = shed
	case recResize:
		if err := r.ensureStarted(); err != nil {
			return err
		}
		h, err := wire.DecodeHello(body)
		if err != nil {
			return fmt.Errorf("%w: resize record: %w", ErrCorrupt, err)
		}
		// Track the current geometry so the writer returned by Recover
		// checkpoints the engine it actually continues.
		r.meta.Hello = h
		if err := r.h.Resize(h); err != nil {
			return err
		}
	case recEnd:
		r.clean = true
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
	}
	return nil
}

// segIndexes lists a session dir's segment files, sorted by index.
func segIndexes(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", dir, err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"))
		if err != nil {
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// readHeader validates a segment header.
func readHeader(f io.Reader) error {
	var hdr [6]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("%w: segment header: %w", trace.ErrTruncated, err)
	}
	if string(hdr[:4]) != Magic {
		return fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if hdr[4] != Version {
		return fmt.Errorf("journal: unsupported segment version %d", hdr[4])
	}
	return nil
}

// segEnd is where a scan stopped in the last segment it kept.
type segEnd struct {
	idx    int
	valid  int64 // body bytes after the header
	blocks uint64
	crc    uint32
}

// scan replays the segments idxs of dir through r in order and stops at
// the first torn or corrupt tail: everything before it is delivered, the
// discarded bytes are counted in Stats, and the rotated successors of a
// torn segment, which describe state no longer reachable, are counted as
// dropped. With repair set it also makes the directory match what was
// delivered — the torn tail truncated, a header-less last segment and the
// dropped successors deleted — so Replay stops at exactly the prefix
// Recover preserves. It returns the last segment kept.
func scan(dir string, idxs []int, r *replayer, repair bool) (segEnd, Stats, error) {
	var last segEnd
	var stats Stats
	for i, idx := range idxs {
		path := segPath(dir, idx)
		f, err := os.Open(path)
		if err != nil {
			return last, stats, fmt.Errorf("journal: opening segment %d: %w", idx, err)
		}
		stats.Segments++
		if hdrErr := readHeader(f); hdrErr != nil {
			f.Close()
			// A header-less last segment can only be the torn first write
			// of a rotation; it carries nothing. A mis-headed earlier
			// segment is real damage.
			if i < len(idxs)-1 || !errors.Is(hdrErr, trace.ErrTruncated) {
				return last, stats, fmt.Errorf("journal: segment %d: %w", idx, hdrErr)
			}
			stats.TornSegments++
			if repair {
				if err := os.Remove(path); err != nil {
					return last, stats, fmt.Errorf("journal: dropping empty segment %d: %w", idx, err)
				}
			}
			break
		}
		res, err := trace.ScanBlocks(f, r.record)
		f.Close()
		if err != nil {
			return last, stats, fmt.Errorf("journal: segment %d: %w", idx, err)
		}
		last = segEnd{idx: idx, valid: res.Valid, blocks: res.Blocks, crc: res.CRC}
		if res.Clean {
			continue
		}
		// An unfinished segment is the active one — expected after any
		// crash or graceful close; only actually discarded bytes (a torn
		// final write, or trailing corruption) count as a truncation.
		if fi, statErr := os.Stat(path); statErr == nil && fi.Size() > 6+res.Valid {
			stats.TornBytes += fi.Size() - (6 + res.Valid)
			stats.TornSegments++
		}
		stats.DroppedSegments = len(idxs) - i - 1
		if repair {
			if err := os.Truncate(path, 6+res.Valid); err != nil {
				return last, stats, fmt.Errorf("journal: truncating segment %d: %w", idx, err)
			}
			for _, lateIdx := range idxs[i+1:] {
				if err := os.Remove(segPath(dir, lateIdx)); err != nil {
					return last, stats, fmt.Errorf("journal: dropping segment %d: %w", lateIdx, err)
				}
			}
		}
		break
	}
	return last, stats, nil
}

// Recover replays one session's journal through h and returns a Writer
// positioned to continue appending, the replayed stream position, and
// repair statistics. A torn or trailing-corrupt tail is truncated at the
// last valid CRC (counted in Stats); later segments past a truncation are
// dropped. If the journal records a clean end, the returned Writer is nil
// and the handler's Start is never called — there is nothing to recover.
func Recover(opts Options, id uint64, h Handler) (*Writer, State, Stats, error) {
	opts = opts.withDefaults()
	dir := sessionDir(opts.Dir, id)
	var stats Stats
	idxs, err := segIndexes(dir)
	if err != nil {
		return nil, State{}, stats, err
	}
	if len(idxs) == 0 {
		return nil, State{}, stats, fmt.Errorf("journal: session %d has no segments", id)
	}

	// An ended session's end record is always in the last segment (End
	// finishes the active segment and nothing follows). Pre-scan it so a
	// cleanly ended session never invokes the handler — the caller would
	// otherwise build an engine just to throw it away.
	if f, err := os.Open(segPath(dir, idxs[len(idxs)-1])); err == nil {
		ended := false
		if readHeader(f) == nil {
			_, _ = trace.ScanBlocks(f, func(p []byte) error {
				if len(p) > 0 && p[0] == recEnd {
					ended = true
				}
				return nil
			})
		}
		f.Close()
		if ended {
			return nil, State{}, stats, nil
		}
	}

	r := &replayer{h: h}
	last, stats, err := scan(dir, idxs, r, true)
	if err != nil {
		return nil, State{}, stats, err
	}
	if r.clean {
		return nil, r.cur, stats, nil
	}
	if !r.started {
		// A journal holding only meta (and perhaps a checkpoint): still a
		// recoverable session at its recorded position.
		if err := r.ensureStarted(); err != nil {
			return nil, State{}, stats, err
		}
	}

	// Reopen the surviving tail segment for append. If everything after
	// the header was torn away, or the survivor was a finished (rotated)
	// segment, re-enter it by truncating its footer — ScanBlocks' Valid
	// excludes the terminator and footer, so truncation at Valid always
	// leaves an appendable body.
	if last.idx == 0 {
		return nil, State{}, stats, fmt.Errorf("journal: session %d has no usable segments", id)
	}
	path := segPath(dir, last.idx)
	if err := os.Truncate(path, 6+last.valid); err != nil {
		return nil, State{}, stats, fmt.Errorf("journal: reopening segment %d: %w", last.idx, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, State{}, stats, fmt.Errorf("journal: reopening segment %d: %w", last.idx, err)
	}
	w := &Writer{
		opts:     opts,
		meta:     r.meta,
		dir:      dir,
		f:        f,
		bufw:     bufio.NewWriterSize(f, 1<<16),
		seg:      last.idx,
		segBytes: last.valid,
		interval: r.cur.Interval,
		observed: r.cur.Observed,
		shed:     r.cur.Shed,
	}
	w.bw = trace.ResumeBlockWriter(w.bufw, last.blocks, last.crc)
	fin := r.cur
	fin.Ring = nil
	return w, fin, stats, nil
}

// Replay reads one session's journal through h without modifying anything
// on disk: no truncation, no reopen-for-append, no segment removal. A torn
// or trailing-corrupt tail simply ends the replay at the last valid record
// — exactly the prefix Recover would have preserved — with the damage
// counted in Stats. Unlike Recover, a cleanly ended journal still replays
// in full: Replay serves readers (export, inspection), not crash recovery.
func Replay(opts Options, id uint64, h Handler) (State, Stats, error) {
	opts = opts.withDefaults()
	dir := sessionDir(opts.Dir, id)
	var stats Stats
	idxs, err := segIndexes(dir)
	if err != nil {
		return State{}, stats, err
	}
	if len(idxs) == 0 {
		return State{}, stats, fmt.Errorf("journal: session %d has no segments", id)
	}
	r := &replayer{h: h}
	if _, stats, err = scan(dir, idxs, r, false); err != nil {
		return State{}, stats, err
	}
	if !r.started {
		// A journal holding only meta (and perhaps a checkpoint) still
		// identifies the session at its recorded position.
		if err := r.ensureStarted(); err != nil {
			return State{}, stats, err
		}
	}
	fin := r.cur
	fin.Ring = nil
	return fin, stats, nil
}
