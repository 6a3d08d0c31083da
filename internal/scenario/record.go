package scenario

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"hwprof/internal/event"
	"hwprof/internal/trace"
)

// A Recording is the replayable artifact of one scenario run: the
// scenario text, the exact event stream it produced (as an embedded
// trace), and the per-interval profile digests the engine computed. The
// artifact is self-contained — replaying needs nothing but the file — and
// self-checking: the stream rides in the CRC-framed trace format and the
// artifact itself carries a whole-payload checksum.
//
// Byte-identity is the contract: a replay runs the engine over the
// embedded stream and must reproduce every recorded digest. The digests
// are CRC32s of the profiles' canonical wire encoding, so digest equality
// is byte equality of the profiles a server would send.
type Recording struct {
	// Text is the scenario source as recorded.
	Text string

	// Scenario is Text parsed.
	Scenario *Scenario

	// Trace is the embedded event stream in trace format.
	Trace []byte

	// Digests are the recorded per-interval profile fingerprints.
	Digests []uint32
}

// Artifact framing.
var recordMagic = [4]byte{'H', 'W', 'S', 'R'}

// recordVersion is the artifact format version. Version 2 embeds a
// version-3 trace; recordings at any other version are refused.
const recordVersion = 2

// ErrDigestMismatch is returned (wrapped, with the interval) when a
// replayed profile differs from the recording.
var ErrDigestMismatch = fmt.Errorf("scenario: replayed profile differs from recording")

// teeSource passes a stream through while appending every tuple to a
// trace writer.
type teeSource struct {
	src event.Source
	w   *trace.Writer
	err error
}

func (t *teeSource) Next() (event.Tuple, bool) {
	if t.err != nil {
		return event.Tuple{}, false
	}
	tp, ok := t.src.Next()
	if !ok {
		return event.Tuple{}, false
	}
	if err := t.w.Write(tp); err != nil {
		t.err = fmt.Errorf("scenario: recording stream: %w", err)
		return event.Tuple{}, false
	}
	return tp, true
}

func (t *teeSource) Err() error {
	if t.err != nil {
		return t.err
	}
	return t.src.Err()
}

// Record runs the scenario locally, measured against the oracle, and
// captures the run as a Recording. The returned Result carries the error
// metrics and any gate failures; a gate failure does not prevent
// recording (recording a failing scenario is how a regression is
// preserved for debugging).
func Record(ctx context.Context, text string) (*Recording, *Result, error) {
	sc, err := Parse(text)
	if err != nil {
		return nil, nil, err
	}
	src, err := sc.Source()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, sc.Kind)
	if err != nil {
		return nil, nil, err
	}
	tee := &teeSource{src: src, w: tw}
	res, err := sc.Run(ctx, RunOptions{Source: tee})
	if err != nil {
		return nil, res, err
	}
	if err := tw.Close(); err != nil {
		return nil, res, fmt.Errorf("scenario: finishing trace: %w", err)
	}
	rec := &Recording{
		Text:     text,
		Scenario: sc,
		Trace:    buf.Bytes(),
		Digests:  append([]uint32(nil), res.Digests...),
	}
	return rec, res, nil
}

// Encode serializes the recording: magic, version, length-prefixed
// scenario text, length-prefixed trace, digest list, and a trailing CRC32
// over everything before it.
func (r *Recording) Encode() []byte {
	out := append([]byte(nil), recordMagic[:]...)
	out = append(out, recordVersion)
	out = binary.AppendUvarint(out, uint64(len(r.Text)))
	out = append(out, r.Text...)
	out = binary.AppendUvarint(out, uint64(len(r.Trace)))
	out = append(out, r.Trace...)
	out = binary.AppendUvarint(out, uint64(len(r.Digests)))
	for _, d := range r.Digests {
		out = binary.LittleEndian.AppendUint32(out, d)
	}
	sum := crc32.ChecksumIEEE(out)
	return binary.LittleEndian.AppendUint32(out, sum)
}

// DecodeRecording parses and verifies an encoded recording: framing,
// trailing checksum, and that the embedded scenario text still parses.
func DecodeRecording(data []byte) (*Recording, error) {
	if len(data) < len(recordMagic)+1+4 {
		return nil, fmt.Errorf("scenario: recording truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], recordMagic[:]) {
		return nil, fmt.Errorf("scenario: not a recording (bad magic %q)", data[:4])
	}
	if v := data[4]; v != recordVersion {
		return nil, fmt.Errorf("scenario: recording version %d unsupported (want %d)", v, recordVersion)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("scenario: recording checksum mismatch (%08x != %08x)", got, want)
	}
	p := body[5:]
	next := func(what string) ([]byte, error) {
		n, k := binary.Uvarint(p)
		if k <= 0 || n > uint64(len(p)-k) {
			return nil, fmt.Errorf("scenario: recording %s length corrupt", what)
		}
		field := p[k : k+int(n)]
		p = p[k+int(n):]
		return field, nil
	}
	text, err := next("scenario text")
	if err != nil {
		return nil, err
	}
	tr, err := next("trace")
	if err != nil {
		return nil, err
	}
	nd, k := binary.Uvarint(p)
	if k <= 0 || (len(p)-k)%4 != 0 || nd != uint64(len(p)-k)/4 {
		return nil, fmt.Errorf("scenario: recording digest list corrupt")
	}
	p = p[k:]
	digests := make([]uint32, nd)
	for i := range digests {
		digests[i] = binary.LittleEndian.Uint32(p[i*4:])
	}
	sc, err := Parse(string(text))
	if err != nil {
		return nil, fmt.Errorf("scenario: recording embeds invalid scenario: %w", err)
	}
	return &Recording{
		Text:     string(text),
		Scenario: sc,
		Trace:    append([]byte(nil), tr...),
		Digests:  digests,
	}, nil
}

// Source returns the embedded event stream as a source. Each call starts
// a fresh read of the trace.
func (r *Recording) Source() (event.Source, error) {
	tr, err := trace.NewReader(bytes.NewReader(r.Trace))
	if err != nil {
		return nil, fmt.Errorf("scenario: recording trace: %w", err)
	}
	if tr.Kind() != r.Scenario.Kind {
		return nil, fmt.Errorf("scenario: recording trace kind %v, scenario declares %v", tr.Kind(), r.Scenario.Kind)
	}
	return tr, nil
}

// CheckDigests compares replayed digests against the recording,
// identifying the first divergent interval.
func (r *Recording) CheckDigests(got []uint32) error {
	if len(got) != len(r.Digests) {
		return fmt.Errorf("%w: %d intervals replayed, %d recorded", ErrDigestMismatch, len(got), len(r.Digests))
	}
	for i := range got {
		if got[i] != r.Digests[i] {
			return fmt.Errorf("%w: interval %d digest %08x, recorded %08x", ErrDigestMismatch, i, got[i], r.Digests[i])
		}
	}
	return nil
}

// Replay runs the engine over the embedded stream and verifies every
// interval's profile is byte-identical to the recorded one. The oracle
// runs too, so the returned Result re-measures accuracy (and gates) on
// the replayed stream.
func (r *Recording) Replay(ctx context.Context) (*Result, error) {
	src, err := r.Source()
	if err != nil {
		return nil, err
	}
	res, err := r.Scenario.Run(ctx, RunOptions{Source: src})
	if err != nil {
		return res, err
	}
	if err := r.CheckDigests(res.Digests); err != nil {
		return res, err
	}
	return res, nil
}
