// Package wire defines the binary protocol spoken between a profiling
// client and the profiled daemon: a connection handshake followed by a
// stream of length-prefixed, CRC32-trailed frames carrying event batches,
// interval profiles, and control messages.
//
// # Stream layout
//
//	handshake: magic "HWPS" | version byte        (each side sends Version
//	           and refuses a peer that sent any other byte)
//	frames:    type byte | uvarint(payloadLen) | payload | CRC32(payload)
//
// The CRC32 (IEEE, little-endian, over the payload bytes only) follows the
// per-block framing discipline of the trace and journal formats
// (internal/trace): a frame is verified before any of its content is
// interpreted, so a flipped bit in transit or a desynchronized stream
// surfaces as ErrCorrupt at the frame boundary instead of as garbage
// profiles.
//
// # Messages
//
// A session is one connection. The client opens with Hello (its profiler
// configuration and shard count); the server answers HelloAck (session id,
// the backpressure policy in force and the shard count it admitted) or
// Error. The client then streams Batch frames; the server asynchronously
// returns one Profile frame per completed interval. Drain asks the server
// to finish gracefully: it answers with a final Profile (Final flag set,
// the unfinished interval's partial profile) followed by Goodbye. Either
// side may send Error before tearing the session down; Goodbye from the
// client abandons the session without the final profile.
//
// Fleet aggregation: a subscriber opens with Subscribe instead of Hello;
// the publisher answers SubscribeAck and then streams one Epoch frame per
// closed fleet epoch, in index order. A marked session (Hello.Marked)
// places its interval boundaries with Mark frames instead of by event
// count, so a coordinator can align a cohort's epochs with a union
// stream's intervals. A Resume carries the client's replay floor as an
// absolute stream position.
//
// Elastic serving: the server may send Notice frames — always at an
// interval boundary — announcing a live geometry change (resize), a
// degradation-ladder transition, or an imminent park. A Notice is an
// absolute snapshot (full geometry plus the boundary's exact stream
// coordinates), so duplicates are harmless and the client never has to
// reconstruct history. Notices are the only geometry channel after the
// HelloAck, which states the admitted shard count: a resuming server
// resends every Profile and Notice past the client's last profile in the
// order it first sent them, so a client that missed a Notice across an
// outage receives it before any profile of the geometry it announces. The
// ResumeAck carries position only.
//
// All encodings are deterministic, and both batches and profiles code each
// tuple as a zigzagged delta from the frame's previous one, with the delta
// base reset at every frame so each frame is self-contained. Profiles,
// whose entries are sorted by tuple, store the deltas as uvarints.
// Batches, the per-event path, code their first tuple as a uvarint base
// and every later one as a fixed-width record, one width per field per
// frame (AppendBatch), so coding an event takes two word stores and
// decoding it two word loads. AppendBatch is the one tuple codec: session
// journals and trace files store its payloads too.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"

	"hwprof/internal/core"
	"hwprof/internal/event"
)

// Magic opens every protocol stream.
const Magic = "HWPS"

// Version is the protocol version this package speaks, and the only one:
// both handshake sides refuse a peer at any other version. v5 replaced the
// batch payload's uvarint records with fixed-width ones; v6 codes each
// batch's first tuple as a uvarint base outside the records; v7 adds the
// admitted shard count to the HelloAck and drops the ResumeAck's offset
// and geometry.
const Version = 7

// MaxPayload bounds a frame payload. Batches and interval profiles are both
// far smaller in practice; the bound exists so a corrupt length prefix
// cannot make a reader allocate gigabytes.
const MaxPayload = 1 << 22

// Frame types.
const (
	// MsgHello (client→server) opens a session: a Hello payload.
	MsgHello byte = 1
	// MsgHelloAck (server→client) accepts a session: a HelloAck payload.
	MsgHelloAck byte = 2
	// MsgBatch (client→server) carries a batch of profiling events.
	MsgBatch byte = 3
	// MsgProfile (server→client) carries one interval's profile.
	MsgProfile byte = 4
	// MsgDrain (client→server) requests a graceful finish: the server
	// answers with a final MsgProfile then MsgGoodbye.
	MsgDrain byte = 5
	// MsgGoodbye ends a session. Empty payload.
	MsgGoodbye byte = 6
	// MsgError reports a terminal session failure: an ErrorMsg payload.
	MsgError byte = 7
	// MsgResume (client→server) reattaches a disconnected session: a
	// Resume payload in place of the Hello.
	MsgResume byte = 8
	// MsgResumeAck (server→client) accepts a resume: a ResumeAck payload
	// carrying the server's exact stream position.
	MsgResumeAck byte = 9

	// MsgSubscribe (subscriber→publisher) opens an epoch-feed
	// subscription in place of a Hello: a Subscribe payload.
	MsgSubscribe byte = 10
	// MsgSubscribeAck (publisher→subscriber) accepts a subscription: a
	// SubscribeAck payload naming the publisher and the first epoch it will
	// deliver.
	MsgSubscribeAck byte = 11
	// MsgEpoch (publisher→subscriber) carries one closed fleet epoch: an
	// EpochMsg payload.
	MsgEpoch byte = 12
	// MsgMark (client→server) closes the session's current interval at
	// the exact stream position of the frame: a Mark payload. Sessions that
	// opened with Hello.Marked place every interval boundary this way.
	MsgMark byte = 13

	// MsgNotice (server→client) announces an elastic-serving event at
	// an interval boundary — a live resize, a degradation-ladder
	// transition, or an imminent park: a Notice payload. Notices are
	// informational snapshots; the session stream continues (or, for a
	// park, pauses for a later Resume) either way.
	MsgNotice byte = 14
)

// Error codes carried by MsgError.
const (
	// CodeProtocol: the peer violated the framing or message grammar.
	CodeProtocol byte = 1
	// CodeConfig: the Hello carried an unusable profiler configuration.
	CodeConfig byte = 2
	// CodeOverload: the server refused the session (session limit).
	CodeOverload byte = 3
	// CodeInternal: the server failed internally (contained panic).
	CodeInternal byte = 4
	// CodeCorrupt: a frame failed its checksum or decode — transport
	// corruption, not a peer bug. The session's engine survives; a client
	// holding a resumable session should reconnect and Resume.
	CodeCorrupt byte = 5
	// CodeUnknownSession: a Resume named a session the server does not
	// hold (never existed, already finished, or its grace period expired).
	CodeUnknownSession byte = 6
	// CodeUnsupported: the peer asked for a capability this server does not
	// provide: an epoch-feed subscription on a daemon not publishing.
	CodeUnsupported byte = 7
)

// ErrCorrupt reports bytes that are present but inconsistent: a checksum
// mismatch, an overlong length prefix, or a payload that does not decode.
var ErrCorrupt = errors.New("wire: corrupt frame")

// ErrTruncated reports a stream that ends mid-handshake or mid-frame.
var ErrTruncated = errors.New("wire: truncated stream")

// ErrProtocol reports a well-formed stream that violates the protocol: bad
// magic, unsupported version, or an unexpected message type.
var ErrProtocol = errors.New("wire: protocol violation")

// crcTable is the frame checksum polynomial, shared with the trace format.
var crcTable = crc32.IEEETable

// zigzag maps a signed delta to an unsigned value that is small when the
// delta's magnitude is, so it fits a short varint or a narrow record.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Conn frames messages over a byte stream. The read and write halves are
// independent: one goroutine may read while another writes, but neither
// half tolerates concurrent use of itself.
type Conn struct {
	r       *bufio.Reader
	w       *bufio.Writer
	scratch [binary.MaxVarintLen64 + 1]byte // WriteFrame's header and checksum
	crc     [4]byte                         // ReadFrame's checksum
	payload []byte                          // reused ReadFrame buffer
}

// NewConn wraps rw for framed message exchange. Perform the handshake
// before any frames.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{
		r: bufio.NewReaderSize(rw, 1<<16),
		w: bufio.NewWriterSize(rw, 1<<16),
	}
}

// ClientHandshake sends the magic and Version, then reads the server's
// reply, which must carry Version too. It must be the first exchange on
// the connection.
func (c *Conn) ClientHandshake() error {
	if err := c.sendHandshake(); err != nil {
		return err
	}
	v, err := c.expectHandshake()
	if err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("%w: server speaks version %d, this client %d", ErrProtocol, v, Version)
	}
	return nil
}

// ServerHandshake reads the client's magic and version and replies with
// Version, then refuses a client at any other version. The reply goes out
// either way, so a mismatched client learns which version it reached. It
// must be the first exchange on the connection.
func (c *Conn) ServerHandshake() error {
	v, err := c.expectHandshake()
	if err != nil {
		return err
	}
	if err := c.sendHandshake(); err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("%w: client speaks version %d, this server %d", ErrProtocol, v, Version)
	}
	return nil
}

func (c *Conn) sendHandshake() error {
	if _, err := c.w.WriteString(Magic); err != nil {
		return fmt.Errorf("wire: writing handshake: %w", err)
	}
	if err := c.w.WriteByte(Version); err != nil {
		return fmt.Errorf("wire: writing handshake: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: writing handshake: %w", err)
	}
	return nil
}

func (c *Conn) expectHandshake() (byte, error) {
	var hdr [len(Magic) + 1]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: handshake: %w", ErrTruncated, err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrProtocol, hdr[:len(Magic)])
	}
	return hdr[len(Magic)], nil
}

// WriteFrame sends one frame and flushes it to the connection.
func (c *Conn) WriteFrame(typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds limit %d", len(payload), MaxPayload)
	}
	c.scratch[0] = typ
	n := 1 + binary.PutUvarint(c.scratch[1:], uint64(len(payload)))
	if _, err := c.w.Write(c.scratch[:n]); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	if _, err := c.w.Write(payload); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	binary.LittleEndian.PutUint32(c.scratch[:4], crc32.Checksum(payload, crcTable))
	if _, err := c.w.Write(c.scratch[:4]); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads and verifies one frame. The payload slice is reused by
// the next ReadFrame call; decode it before reading again. io.EOF is
// returned verbatim when the stream ends cleanly at a frame boundary;
// every other failure wraps ErrTruncated or ErrCorrupt.
func (c *Conn) ReadFrame() (typ byte, payload []byte, err error) {
	typ, err = c.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: frame header: %w", ErrTruncated, err)
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: frame length: %w", ErrTruncated, err)
	}
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrCorrupt, n, MaxPayload)
	}
	if uint64(cap(c.payload)) < n {
		c.payload = make([]byte, n)
	}
	c.payload = c.payload[:n]
	if _, err := io.ReadFull(c.r, c.payload); err != nil {
		return 0, nil, fmt.Errorf("%w: frame payload: %w", ErrTruncated, err)
	}
	if _, err := io.ReadFull(c.r, c.crc[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: frame checksum: %w", ErrTruncated, err)
	}
	got := crc32.Checksum(c.payload, crcTable)
	if want := binary.LittleEndian.Uint32(c.crc[:]); want != got {
		return 0, nil, fmt.Errorf("%w: checksum mismatch: stored %#x, computed %#x", ErrCorrupt, want, got)
	}
	return typ, c.payload, nil
}

// Hello is the session-opening message: the profiler configuration the
// client wants the server to run, plus the shard count of the engine that
// will run it.
type Hello struct {
	// Config is the full profiler configuration; the server validates it
	// and builds the session's engine from it. IntervalLength doubles as
	// the interval boundary the server places in the event stream.
	Config core.Config

	// Shards is the requested shard count of the session's engine; 0 or 1
	// means sequential. Servers may clamp it.
	Shards int

	// Marked declares that the client will place every interval
	// boundary itself with MsgMark frames; the server must not clip the
	// stream by IntervalLength. This is how a coordinator that owns a
	// fleet-wide union stream keeps the per-machine epoch boundaries
	// aligned with the union's interval boundaries.
	Marked bool
}

// Hello config flag bits.
const (
	flagConservative = 1 << iota
	flagResetOnPromote
	flagRetain
	flagNoShield
	flagWeakHash
)

// Hello extension flag bits, in the byte after the shard count.
const helloFlagMarked = 1 << iota

// AppendHello encodes h onto dst. The session journal stores the same
// bytes, so a change to this encoding is a change to the journal format.
func AppendHello(dst []byte, h Hello) []byte {
	c := h.Config
	dst = binary.AppendUvarint(dst, c.IntervalLength)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.ThresholdPercent))
	dst = binary.AppendUvarint(dst, uint64(c.TotalEntries))
	dst = binary.AppendUvarint(dst, uint64(c.NumTables))
	dst = binary.AppendUvarint(dst, uint64(c.CounterWidth))
	var flags byte
	if c.ConservativeUpdate {
		flags |= flagConservative
	}
	if c.ResetOnPromote {
		flags |= flagResetOnPromote
	}
	if c.Retain {
		flags |= flagRetain
	}
	if c.NoShield {
		flags |= flagNoShield
	}
	if c.WeakHash {
		flags |= flagWeakHash
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(c.AccumCapacity))
	dst = binary.LittleEndian.AppendUint64(dst, c.Seed)
	dst = binary.AppendUvarint(dst, uint64(h.Shards))
	var flags2 byte
	if h.Marked {
		flags2 |= helloFlagMarked
	}
	return append(dst, flags2)
}

// DecodeHello decodes a Hello payload. It checks only the encoding; the
// configuration's own validity is the server's call (core.Config.Validate).
func DecodeHello(p []byte) (Hello, error) {
	d := decoder{p: p}
	var h Hello
	h.Config.IntervalLength = d.uvarint()
	h.Config.ThresholdPercent = math.Float64frombits(d.u64())
	h.Config.TotalEntries = d.vint()
	h.Config.NumTables = d.vint()
	h.Config.CounterWidth = uint(d.uvarint())
	flags := d.byte()
	h.Config.ConservativeUpdate = flags&flagConservative != 0
	h.Config.ResetOnPromote = flags&flagResetOnPromote != 0
	h.Config.Retain = flags&flagRetain != 0
	h.Config.NoShield = flags&flagNoShield != 0
	h.Config.WeakHash = flags&flagWeakHash != 0
	h.Config.AccumCapacity = d.vint()
	h.Config.Seed = d.u64()
	h.Shards = d.vint()
	h.Marked = d.byte()&helloFlagMarked != 0
	if err := d.finish("hello"); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// HelloAck is the server's session acceptance.
type HelloAck struct {
	// SessionID identifies the session in the server's logs and telemetry.
	SessionID uint64

	// Shed reports the backpressure policy in force: true means the server
	// drops batches when the session's queue is full (and reports the count
	// in every Profile), false means a full queue blocks the stream.
	Shed bool

	// QueueDepth is the session's queue bound, in batches.
	QueueDepth int

	// Resume reports whether the server retains a disconnected session's
	// engine for a grace period, so the client may reconnect and Resume.
	// A client should not bother reconnecting to a server that says false.
	Resume bool

	// Shards is the shard count the session runs: the Hello's request,
	// clamped by the server. Later changes arrive as Notices.
	Shards int
}

// HelloAck flag bits.
const (
	ackFlagShed = 1 << iota
	ackFlagResume
)

// AppendHelloAck encodes a onto dst.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = binary.AppendUvarint(dst, a.SessionID)
	var b byte
	if a.Shed {
		b |= ackFlagShed
	}
	if a.Resume {
		b |= ackFlagResume
	}
	dst = append(dst, b)
	dst = binary.AppendUvarint(dst, uint64(a.QueueDepth))
	return binary.AppendUvarint(dst, uint64(a.Shards))
}

// DecodeHelloAck decodes a HelloAck payload.
func DecodeHelloAck(p []byte) (HelloAck, error) {
	d := decoder{p: p}
	var a HelloAck
	a.SessionID = d.uvarint()
	flags := d.byte()
	a.Shed = flags&ackFlagShed != 0
	a.Resume = flags&ackFlagResume != 0
	a.QueueDepth = d.vint()
	a.Shards = d.vint()
	if err := d.finish("hello-ack"); err != nil {
		return HelloAck{}, err
	}
	return a, nil
}

// Resume reattaches a new connection to a session whose previous
// connection was lost. It opens the stream where a Hello otherwise would.
// The client states what it already holds; the server answers with a
// ResumeAck carrying its own exact position, resends every Profile and
// Notice it sent after the client's last profile, as first sent, and the
// client replays its event stream from the acked StreamPos — so the
// resumed run is bit-identical to an uninterrupted one.
type Resume struct {
	// SessionID is the id the HelloAck assigned.
	SessionID uint64

	// Intervals is the number of complete interval profiles the client has
	// received (equivalently: the index of the next profile it expects).
	Intervals uint64

	// Floor is the client's replay floor as an absolute stream position:
	// the first position of its frame log, from which it can resend every
	// event. The client prunes whole frames, so Floor may lie below the
	// position its profiles prove consumed; a server accepts any Floor at
	// or below its own position.
	Floor uint64
}

// AppendResume encodes r onto dst.
func AppendResume(dst []byte, r Resume) []byte {
	dst = binary.AppendUvarint(dst, r.SessionID)
	dst = binary.AppendUvarint(dst, r.Intervals)
	return binary.AppendUvarint(dst, r.Floor)
}

// DecodeResume decodes a Resume payload.
func DecodeResume(p []byte) (Resume, error) {
	d := decoder{p: p}
	var r Resume
	r.SessionID = d.uvarint()
	r.Intervals = d.uvarint()
	r.Floor = d.uvarint()
	if err := d.finish("resume"); err != nil {
		return Resume{}, err
	}
	return r, nil
}

// ResumeAck accepts a Resume: the server's exact position in the session.
// It carries no geometry; the Notices resent after it do.
type ResumeAck struct {
	// Intervals is the number of complete intervals the server's engine
	// has finished.
	Intervals uint64

	// StreamPos is the total number of client-stream events the server has
	// consumed — observed plus shed. The client must resume sending at
	// exactly this position for the profiles to stay bit-identical.
	StreamPos uint64

	// Shed is the session's cumulative shed count so far.
	Shed uint64
}

// AppendResumeAck encodes a onto dst.
func AppendResumeAck(dst []byte, a ResumeAck) []byte {
	dst = binary.AppendUvarint(dst, a.Intervals)
	dst = binary.AppendUvarint(dst, a.StreamPos)
	return binary.AppendUvarint(dst, a.Shed)
}

// DecodeResumeAck decodes a ResumeAck payload.
func DecodeResumeAck(p []byte) (ResumeAck, error) {
	d := decoder{p: p}
	var a ResumeAck
	a.Intervals = d.uvarint()
	a.StreamPos = d.uvarint()
	a.Shed = d.uvarint()
	if err := d.finish("resume-ack"); err != nil {
		return ResumeAck{}, err
	}
	return a, nil
}

// byteWidth is the number of bytes, from 1 to 8, that hold v.
func byteWidth(v uint64) int {
	return max(1, (bits.Len64(v)+7)/8)
}

// widthMask keeps the low w bytes of a word.
func widthMask(w int) uint64 { return ^uint64(0) >> (64 - 8*w) }

// AppendBatch encodes a batch of tuples onto dst:
//
//	uvarint(count) | widths byte (wA<<4 | wB) | base | (count−1) × (wA+wB)-byte records
//
// The base is the first tuple, as uvarint(A) | uvarint(B); the empty batch
// has none, and its widths byte is 0x11. Each later tuple is one record:
// zigzag(A − prevA) in wA little-endian bytes, then zigzag(B − prevB) in wB
// bytes, the chain starting at the base. wA and wB are the smallest widths
// in 1..8 that hold every delta of the frame, so each field is one word
// store here and one masked word load in DecodeBatch, and a stream of
// large values with small deltas pays only the deltas' width. Like append,
// it may write into dst's spare capacity: here up to 8 bytes past the end
// of the returned slice.
func AppendBatch(dst []byte, batch []event.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	if len(batch) == 0 {
		return append(dst, 0x11)
	}
	var orA, orB uint64
	prev := batch[0]
	for _, tp := range batch[1:] {
		orA |= zigzag(int64(tp.A - prev.A))
		orB |= zigzag(int64(tp.B - prev.B))
		prev = tp
	}
	wA, wB := byteWidth(orA), byteWidth(orB)
	dst = append(dst, byte(wA<<4|wB))
	dst = binary.AppendUvarint(dst, batch[0].A)
	dst = binary.AppendUvarint(dst, batch[0].B)
	// Every field is stored as a full 8-byte word whose high bytes the next
	// store overwrites; the last store runs into 8 bytes of slack, trimmed
	// on return.
	rec, start := wA+wB, len(dst)
	end := start + (len(batch)-1)*rec
	dst = slices.Grow(dst, end+8-start)[:end+8]
	prev = batch[0]
	for i, tp := range batch[1:] {
		off := start + i*rec
		binary.LittleEndian.PutUint64(dst[off:], zigzag(int64(tp.A-prev.A)))
		binary.LittleEndian.PutUint64(dst[off+wA:], zigzag(int64(tp.B-prev.B)))
		prev = tp
	}
	return dst[:end]
}

// DecodeBatch decodes a batch payload into buf (grown as needed, reused
// when capacity allows) and returns the decoded tuples.
func DecodeBatch(p []byte, buf []event.Tuple) ([]event.Tuple, error) {
	n, k := binary.Uvarint(p)
	if k <= 0 {
		return nil, fmt.Errorf("batch: %w: bad varint at offset 0", ErrCorrupt)
	}
	if k == len(p) {
		return nil, fmt.Errorf("batch: %w: payload ends before the widths byte", ErrCorrupt)
	}
	wA, wB := int(p[k]>>4), int(p[k]&0xf)
	if wA < 1 || wA > 8 || wB < 1 || wB > 8 {
		return nil, fmt.Errorf("batch: %w: record widths %d+%d outside 1..8", ErrCorrupt, wA, wB)
	}
	body, rec := p[k+1:], wA+wB
	if n == 0 {
		if len(body) != 0 {
			return nil, fmt.Errorf("batch: %w: %d bytes after an empty batch", ErrCorrupt, len(body))
		}
		return buf[:0], nil
	}
	var base event.Tuple
	base.A, k = binary.Uvarint(body)
	if k > 0 {
		body = body[k:]
		base.B, k = binary.Uvarint(body)
	}
	if k <= 0 {
		return nil, fmt.Errorf("batch: %w: bad base tuple", ErrCorrupt)
	}
	body = body[k:]
	// The body must hold exactly count−1 records, checked before anything
	// is allocated for them (and without forming records × rec, which a
	// corrupt count could overflow).
	if records := n - 1; records > uint64(len(body)/rec) || int(records)*rec != len(body) {
		return nil, fmt.Errorf("batch: %w: %d records of %d bytes declared in a %d-byte body", ErrCorrupt, n-1, rec, len(body))
	}
	if uint64(cap(buf)) < n {
		buf = make([]event.Tuple, n)
	}
	buf = buf[:n]
	buf[0] = base
	// A record is read with two 8-byte loads, the second ending wA+8 bytes
	// past its start; records whose loads would run past the body are read
	// from a zero-padded copy of the body's tail.
	whole := 0
	if len(body) >= wA+8 {
		whole = (len(body)-wA-8)/rec + 1
	}
	prev := decodeRecords(buf[1:1+whole], body, base, wA, wB)
	var tail [32]byte
	copy(tail[:], body[whole*rec:])
	decodeRecords(buf[1+whole:], tail[:], prev, wA, wB)
	return buf, nil
}

// decodeRecords fills out from the (wA+wB)-byte records at the start of src,
// continuing the delta chain from prev, and returns the last tuple. src must
// extend at least wA+8 bytes past the start of the last record.
func decodeRecords(out []event.Tuple, src []byte, prev event.Tuple, wA, wB int) event.Tuple {
	rec, mA, mB := wA+wB, widthMask(wA), widthMask(wB)
	for i := range out {
		off := i * rec
		prev.A += uint64(unzigzag(binary.LittleEndian.Uint64(src[off:]) & mA))
		prev.B += uint64(unzigzag(binary.LittleEndian.Uint64(src[off+wA:]) & mB))
		out[i] = prev
	}
	return prev
}

// ProfileMsg is one interval's profile as carried on the wire, and as a
// client session delivers it (client.Profile, hwprof.RemoteProfile).
type ProfileMsg struct {
	// Index is the interval's index within the session, from 0. For a
	// final (partial) profile it is the index the interval would have had.
	Index uint64

	// Shed is the cumulative count of events the server dropped under the
	// shed backpressure policy, over the whole session so far. Zero under
	// the block policy.
	Shed uint64

	// Final marks the drain reply: the unfinished interval's partial
	// profile, after which only Goodbye follows.
	Final bool

	// Counts is the profile: captured count per tuple.
	Counts map[event.Tuple]uint64
}

// appendCounts encodes a count map onto dst: uvarint size, then entries
// sorted by tuple (so the encoding is deterministic) and delta-coded like
// batch records with the count appended to each record.
func appendCounts(dst []byte, counts map[event.Tuple]uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(counts)))
	entries := make([]event.Tuple, 0, len(counts))
	for tp := range counts {
		entries = append(entries, tp)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].A != entries[j].A {
			return entries[i].A < entries[j].A
		}
		return entries[i].B < entries[j].B
	})
	var prev event.Tuple
	for _, tp := range entries {
		dst = binary.AppendUvarint(dst, zigzag(int64(tp.A)-int64(prev.A)))
		dst = binary.AppendUvarint(dst, zigzag(int64(tp.B)-int64(prev.B)))
		dst = binary.AppendUvarint(dst, counts[tp])
		prev = tp
	}
	return dst
}

// counts decodes a count map off the cursor, rejecting duplicate tuples
// and entry counts the remaining payload cannot hold.
func (d *decoder) counts(what string) map[event.Tuple]uint64 {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	// Each entry is at least three bytes.
	if n > uint64(len(d.p)-d.pos)/3+1 {
		d.err = fmt.Errorf("%w: %s declares %d entries in %d bytes", ErrCorrupt, what, n, len(d.p))
		return nil
	}
	m := make(map[event.Tuple]uint64, n)
	var prev event.Tuple
	for i := uint64(0); i < n; i++ {
		prev.A = uint64(int64(prev.A) + unzigzag(d.uvarint()))
		prev.B = uint64(int64(prev.B) + unzigzag(d.uvarint()))
		c := d.uvarint()
		if d.err != nil {
			return nil
		}
		if _, dup := m[prev]; dup {
			d.err = fmt.Errorf("%w: %s repeats tuple %v", ErrCorrupt, what, prev)
			return nil
		}
		m[prev] = c
	}
	return m
}

// AppendProfile encodes m onto dst.
func AppendProfile(dst []byte, m ProfileMsg) []byte {
	var flags byte
	if m.Final {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, m.Index)
	dst = binary.AppendUvarint(dst, m.Shed)
	return appendCounts(dst, m.Counts)
}

// DecodeProfile decodes a profile payload.
func DecodeProfile(p []byte) (ProfileMsg, error) {
	d := decoder{p: p}
	var m ProfileMsg
	m.Final = d.byte()&1 != 0
	m.Index = d.uvarint()
	m.Shed = d.uvarint()
	m.Counts = d.counts("profile")
	if err := d.finish("profile"); err != nil {
		return ProfileMsg{}, err
	}
	return m, nil
}

// maxName bounds every machine/child name on the wire, so a corrupt
// length prefix cannot demand a huge allocation.
const maxName = 256

// appendName encodes a length-prefixed name, truncating oversized ones.
func appendName(dst []byte, s string) []byte {
	if len(s) > maxName {
		s = s[:maxName]
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// name decodes a length-prefixed name off the cursor.
func (d *decoder) name(what string) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxName || n > uint64(len(d.p)-d.pos) {
		d.err = fmt.Errorf("%w: %s name length %d overruns payload", ErrCorrupt, what, n)
		return ""
	}
	s := string(d.p[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// Subscribe opens an epoch-feed subscription: the subscriber asks the
// publisher — a publishing profiled daemon or an aggd — for every closed
// epoch from Start onward.
type Subscribe struct {
	// Start is the first epoch index the subscriber needs. Epochs the
	// publisher no longer retains are skipped; the SubscribeAck's First
	// tells the subscriber where delivery actually begins.
	Start uint64
}

// AppendSubscribe encodes s onto dst.
func AppendSubscribe(dst []byte, s Subscribe) []byte {
	return binary.AppendUvarint(dst, s.Start)
}

// DecodeSubscribe decodes a Subscribe payload.
func DecodeSubscribe(p []byte) (Subscribe, error) {
	d := decoder{p: p}
	var s Subscribe
	s.Start = d.uvarint()
	if err := d.finish("subscribe"); err != nil {
		return Subscribe{}, err
	}
	return s, nil
}

// SubscribeAck accepts a subscription.
type SubscribeAck struct {
	// Source is the publisher's machine id, stamped on every epoch it
	// emits.
	Source string

	// EpochLength is the publisher's epoch length in events per member
	// stream — the interval length of the cohort it merges. A subscriber
	// merging several publishers must see the same length from all of them.
	EpochLength uint64

	// First is the epoch index of the first Epoch frame this subscription
	// will deliver: the requested Start when the publisher still retains
	// it, later otherwise. A subscriber that needed earlier epochs records
	// [Start, First) as a declared gap.
	First uint64

	// Window is how many closed epochs the publisher retains for
	// resubscription after a broken link.
	Window uint64
}

// AppendSubscribeAck encodes a onto dst.
func AppendSubscribeAck(dst []byte, a SubscribeAck) []byte {
	dst = appendName(dst, a.Source)
	dst = binary.AppendUvarint(dst, a.EpochLength)
	dst = binary.AppendUvarint(dst, a.First)
	return binary.AppendUvarint(dst, a.Window)
}

// DecodeSubscribeAck decodes a SubscribeAck payload.
func DecodeSubscribeAck(p []byte) (SubscribeAck, error) {
	d := decoder{p: p}
	var a SubscribeAck
	a.Source = d.name("subscribe-ack")
	a.EpochLength = d.uvarint()
	a.First = d.uvarint()
	a.Window = d.uvarint()
	if err := d.finish("subscribe-ack"); err != nil {
		return SubscribeAck{}, err
	}
	return a, nil
}

// EpochMsg is one closed fleet epoch as carried on the wire: the
// merged counts of every member that reported interval Epoch, stamped with
// the publisher's identity. Epochs are delivered strictly in index order
// per subscription. A feed closes, retains and delivers epochs in this
// type too (agg.Epoch, hwprof.EpochProfile).
type EpochMsg struct {
	// Source is the publisher's machine or aggregator ID: the feed that
	// closed the epoch.
	Source string

	// Epoch is the epoch index: the interval index of the member profiles
	// merged into it (interval boundaries are event counts, so epoch
	// identity is the interval index, never wall clock).
	Epoch uint64

	// Partial marks an epoch closed without every member: a straggler
	// deadline fired, the open-epoch window overflowed, or a child's own
	// epoch was partial. Missing names who.
	Partial bool

	// Children is the number of direct members that reported into this
	// epoch at the publisher.
	Children uint64

	// Missing names the members absent from a partial epoch, sorted:
	// direct members that did not report and the missing members of
	// children's partial epochs alike. Missing lists propagate upward
	// through the tree, so at the root they name the actual absent
	// leaves/links.
	Missing []string

	// Counts is the merged profile. It is shared read-only once the epoch
	// closes; do not mutate it.
	Counts map[event.Tuple]uint64
}

// epochFlagPartial marks a partial epoch in the EpochMsg flags byte.
const epochFlagPartial = 1

// AppendEpoch encodes m onto dst; the count-map coding is the same
// deterministic sorted-delta coding profiles use.
func AppendEpoch(dst []byte, m EpochMsg) []byte {
	var flags byte
	if m.Partial {
		flags |= epochFlagPartial
	}
	dst = append(dst, flags)
	dst = appendName(dst, m.Source)
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, m.Children)
	dst = binary.AppendUvarint(dst, uint64(len(m.Missing)))
	for _, name := range m.Missing {
		dst = appendName(dst, name)
	}
	return appendCounts(dst, m.Counts)
}

// DecodeEpoch decodes an EpochMsg payload.
func DecodeEpoch(p []byte) (EpochMsg, error) {
	d := decoder{p: p}
	var m EpochMsg
	flags := d.byte()
	m.Partial = flags&epochFlagPartial != 0
	m.Source = d.name("epoch")
	m.Epoch = d.uvarint()
	m.Children = d.uvarint()
	n := d.uvarint()
	if d.err != nil {
		return EpochMsg{}, d.fail("epoch")
	}
	// Each missing name takes at least one byte (its length prefix).
	if n > uint64(len(p)-d.pos) {
		return EpochMsg{}, fmt.Errorf("%w: epoch declares %d missing names in %d bytes", ErrCorrupt, n, len(p))
	}
	if n > 0 {
		m.Missing = make([]string, n)
		for i := range m.Missing {
			m.Missing[i] = d.name("epoch")
		}
	}
	m.Counts = d.counts("epoch")
	if err := d.finish("epoch"); err != nil {
		return EpochMsg{}, err
	}
	return m, nil
}

// Mark closes a marked session's current interval: the boundary lands
// at the exact stream position of the frame, and the profile emitted for
// it carries the interval index Index — which the server validates against
// its own count, so a desynchronized client surfaces as a protocol error
// instead of as misaligned epochs.
type Mark struct {
	// Index is the interval index this mark closes (0 for the first).
	Index uint64
}

// AppendMark encodes m onto dst.
func AppendMark(dst []byte, m Mark) []byte {
	return binary.AppendUvarint(dst, m.Index)
}

// DecodeMark decodes a Mark payload.
func DecodeMark(p []byte) (Mark, error) {
	d := decoder{p: p}
	var m Mark
	m.Index = d.uvarint()
	if err := d.finish("mark"); err != nil {
		return Mark{}, err
	}
	return m, nil
}

// Notice kinds.
const (
	// NoticeResize: the session's engine was rebuilt with the geometry in
	// this notice, effective from interval Index+1.
	NoticeResize byte = 1
	// NoticeDegrade: the degradation ladder moved to Rung; when the rung
	// change also resized the engine, the geometry fields carry the new
	// shape exactly as a NoticeResize would.
	NoticeDegrade byte = 2
	// NoticePark: the server is about to park the session (ladder rung 4);
	// the connection will close and the client should back off and Resume.
	NoticePark byte = 3
)

// Notice is a server-initiated elastic-serving announcement, sent at
// an interval boundary: a live resize, a degradation-ladder move, or an
// imminent park. It is an absolute snapshot: the boundary's exact
// coordinates plus the full geometry now in force, so applying the same
// notice twice is a no-op and a client can rebuild its position arithmetic
// from any single notice. A client session applies each notice to its own
// position arithmetic and records it in its notice trail as this type
// (client.Notice, hwprof.RemoteNotice), so a caller may ignore notices
// entirely.
//
// A client streaming to an elastic server derives its replay-buffer prune
// floor for profile i >= BaseIndex as
//
//	Observed + (i+1-BaseIndex)×IntervalLength + profile.Shed
//
// where BaseIndex = Index+1 is the first interval of the new geometry —
// the variable-geometry generalization of the fixed-length
// (i+1)×IntervalLength+Shed arithmetic.
type Notice struct {
	// Kind classifies the announcement (NoticeResize, NoticeDegrade,
	// NoticePark).
	Kind byte

	// Rung is the degradation-ladder rung now in effect (0 = full service),
	// coded as one byte.
	Rung int

	// Index is the last interval completed under the previous geometry —
	// the boundary this notice was placed at. The new geometry is in force
	// from interval Index+1.
	Index uint64

	// Observed is the total number of events the engine has observed (shed
	// excluded) through that boundary.
	Observed uint64

	// Shed is the session's cumulative shed count through that boundary.
	Shed uint64

	// IntervalLength, TotalEntries, NumTables and Shards are the session's
	// full geometry from interval Index+1 on. ThresholdPercent never
	// changes — the absolute candidate threshold scales with the interval,
	// which is what keeps a resize accuracy-neutral (§5.6.1).
	IntervalLength uint64
	TotalEntries   int
	NumTables      int
	Shards         int

	// Reason is a human-readable explanation (the controller's arithmetic,
	// a quota refusal, the pressure signal that tripped the ladder).
	Reason string
}

// AppendNotice encodes n onto dst.
func AppendNotice(dst []byte, n Notice) []byte {
	dst = append(dst, n.Kind, byte(n.Rung))
	dst = binary.AppendUvarint(dst, n.Index)
	dst = binary.AppendUvarint(dst, n.Observed)
	dst = binary.AppendUvarint(dst, n.Shed)
	dst = binary.AppendUvarint(dst, n.IntervalLength)
	dst = binary.AppendUvarint(dst, uint64(n.TotalEntries))
	dst = binary.AppendUvarint(dst, uint64(n.NumTables))
	dst = binary.AppendUvarint(dst, uint64(n.Shards))
	reason := n.Reason
	if len(reason) > maxErrorMsg {
		reason = reason[:maxErrorMsg]
	}
	dst = binary.AppendUvarint(dst, uint64(len(reason)))
	return append(dst, reason...)
}

// DecodeNotice decodes a Notice payload.
func DecodeNotice(p []byte) (Notice, error) {
	d := decoder{p: p}
	var n Notice
	n.Kind = d.byte()
	n.Rung = int(d.byte())
	n.Index = d.uvarint()
	n.Observed = d.uvarint()
	n.Shed = d.uvarint()
	n.IntervalLength = d.uvarint()
	n.TotalEntries = d.vint()
	n.NumTables = d.vint()
	n.Shards = d.vint()
	sz := d.uvarint()
	if d.err != nil {
		return Notice{}, d.fail("notice")
	}
	if sz > maxErrorMsg || sz > uint64(len(p)-d.pos) {
		return Notice{}, fmt.Errorf("%w: notice reason length %d overruns payload", ErrCorrupt, sz)
	}
	n.Reason = string(p[d.pos : d.pos+int(sz)])
	d.pos += int(sz)
	if err := d.finish("notice"); err != nil {
		return Notice{}, err
	}
	return n, nil
}

// ErrorMsg is a terminal session failure report.
type ErrorMsg struct {
	// Code classifies the failure (CodeProtocol, CodeConfig, ...).
	Code byte

	// Msg is a human-readable description.
	Msg string
}

// Error formats the message as a Go error string.
func (e ErrorMsg) Error() string {
	return fmt.Sprintf("wire: remote error (code %d): %s", e.Code, e.Msg)
}

// maxErrorMsg bounds the encoded error text.
const maxErrorMsg = 4096

// AppendError encodes e onto dst, truncating oversized messages.
func AppendError(dst []byte, e ErrorMsg) []byte {
	msg := e.Msg
	if len(msg) > maxErrorMsg {
		msg = msg[:maxErrorMsg]
	}
	dst = append(dst, e.Code)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

// DecodeError decodes an ErrorMsg payload.
func DecodeError(p []byte) (ErrorMsg, error) {
	d := decoder{p: p}
	var e ErrorMsg
	e.Code = d.byte()
	n := d.uvarint()
	if d.err != nil {
		return ErrorMsg{}, d.fail("error")
	}
	if n > uint64(len(p)-d.pos) {
		return ErrorMsg{}, fmt.Errorf("%w: error message length %d overruns payload", ErrCorrupt, n)
	}
	e.Msg = string(p[d.pos : d.pos+int(n)])
	d.pos += int(n)
	if err := d.finish("error"); err != nil {
		return ErrorMsg{}, err
	}
	return e, nil
}

// decoder is a cursor over a frame payload with sticky error handling, so
// message decoders read field after field and check once.
type decoder struct {
	p   []byte
	pos int
	err error
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.p) {
		d.err = fmt.Errorf("%w: payload ends early", ErrCorrupt)
		return 0
	}
	b := d.p[d.pos]
	d.pos++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, d.pos)
		return 0
	}
	d.pos += n
	return v
}

// vint reads a uvarint that must fit in an int.
func (d *decoder) vint() int {
	v := d.uvarint()
	if d.err == nil && v > math.MaxInt32 {
		d.err = fmt.Errorf("%w: value %d out of range", ErrCorrupt, v)
	}
	return int(v)
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.p) {
		d.err = fmt.Errorf("%w: payload ends early", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.pos:])
	d.pos += 8
	return v
}

// finish reports the sticky error, or trailing garbage after the message.
func (d *decoder) finish(msg string) error {
	if d.err != nil {
		return d.fail(msg)
	}
	if d.pos != len(d.p) {
		return fmt.Errorf("%w: %s payload has %d trailing bytes", ErrCorrupt, msg, len(d.p)-d.pos)
	}
	return nil
}

func (d *decoder) fail(msg string) error {
	return fmt.Errorf("%s: %w", msg, d.err)
}
