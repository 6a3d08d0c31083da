// Package trace implements a binary file format for tuple streams, the
// stand-in for the ATOM-instrumented program traces the paper profiled,
// and the CRC block framing (BlockWriter, ScanBlocks) that trace files and
// session journals share.
//
// Format (version 3; the Reader refuses any other version byte):
//
//	header:  magic "HWPT" | version byte | kind byte
//	body:    a block stream (see BlockWriter) whose every payload is one
//	         wire.AppendBatch batch of 1 to blockTuples tuples, closed by
//	         the terminator and the block-count+CRC footer
//
// Tuples are stored as the batches of the wire protocol and the journal:
// a block's first tuple as a uvarint base, and each later one as a record
// of zigzagged deltas from the tuple before it, at the narrowest byte
// width that holds every delta of the block, so decoding an event takes
// two word loads. On the workload analogs that is 9.0 B/event.
//
// The framing exists for fault tolerance: a stream always ends with the
// terminator and footer, so the Reader can tell a cleanly finished trace
// from one that was cut off (ErrTruncated), and the checksums catch bit
// flips and in-place corruption (ErrCorrupt). Each block is verified
// against its own CRC before any tuple in it is delivered, so corruption
// is detected promptly even by readers that consume only a prefix of the
// stream; the footer's block count and stream-wide CRC close the loop for
// full reads.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"hwprof/internal/event"
	"hwprof/internal/wire"
)

// Magic identifies a hwprof trace file.
const Magic = "HWPT"

// Version is the format version: wire batch records framed in CRC-checked
// blocks.
const Version = 3

// ErrBadMagic is returned when a stream does not begin with Magic.
var ErrBadMagic = errors.New("trace: bad magic, not a hwprof trace")

// ErrTruncated reports a trace that ends before its format says it may:
// mid-block, or before the terminator and footer.
var ErrTruncated = errors.New("trace: truncated trace")

// ErrCorrupt reports a trace whose bytes are present but inconsistent: a
// failed checksum, a block-count mismatch, framing or records that cannot
// be decoded, or bytes after the footer.
var ErrCorrupt = errors.New("trace: corrupt trace")

// blockTuples is the most tuples one block holds. A block of the widest
// records is 2,047 × 16 bytes plus at most 23 of count, widths and base:
// within maxBlockLen, and little enough that a prefix read verifies at
// most about 32 KiB before its first tuple.
const blockTuples = 2048

// Writer streams tuples into an io.Writer in trace format. Close
// finalizes the stream; a trace without its footer reads back as
// truncated, which is exactly the point.
type Writer struct {
	w      *bufio.Writer
	blocks *BlockWriter

	// The tuples of the pending block and the buffer it is encoded in.
	pending []event.Tuple
	payload []byte

	count  uint64
	closed bool
}

// NewWriter writes a trace header for the given tuple kind and returns a
// Writer. Call Close when done — the footer is what lets readers
// distinguish a finished trace from a truncated one.
func NewWriter(w io.Writer, kind event.Kind) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(append([]byte(Magic), Version, byte(kind))); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw, blocks: NewBlockWriter(bw), pending: make([]event.Tuple, 0, blockTuples)}, nil
}

// Write appends one tuple to the trace.
func (w *Writer) Write(t event.Tuple) error {
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	w.pending = append(w.pending, t)
	if len(w.pending) == blockTuples {
		if err := w.emit(); err != nil {
			return err
		}
	}
	w.count++
	return nil
}

// emit writes the pending tuples as one block.
func (w *Writer) emit() error {
	w.payload = wire.AppendBatch(w.payload[:0], w.pending)
	w.pending = w.pending[:0]
	return w.blocks.Append(w.payload)
}

// Count returns the number of tuples written so far.
func (w *Writer) Count() uint64 { return w.count }

// Close finalizes the trace — the last block, the terminator and the
// footer — and flushes everything to the underlying writer. It does not
// close the underlying writer. Close is idempotent; Write after Close is
// an error.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.pending) > 0 {
		if err := w.emit(); err != nil {
			return err
		}
	}
	if err := w.blocks.Finish(); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Reader streams tuples out of a trace. It implements event.Source and
// event.BatchSource: Next and NextBatch share one position, so they may be
// interleaved. Either one reporting the end means the stream ended, and
// Err reports whether the end was the trace's genuine end or a
// truncation/corruption failure. A genuine end is the footer followed by
// EOF: the Reader reads past the footer, and bytes there are corrupt.
type Reader struct {
	blocks *blockReader
	kind   event.Kind

	// The current block's tuples and the read position within them.
	buf []event.Tuple
	pos int

	count uint64
	err   error
}

// NewReader validates the header of r and returns a Reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	return &Reader{blocks: newBlockReader(r), kind: event.Kind(hdr[5])}, nil
}

// Kind returns the tuple kind declared in the trace header.
func (r *Reader) Kind() event.Kind { return r.kind }

// Count returns the number of records delivered so far.
func (r *Reader) Count() uint64 { return r.count }

// Next returns the next tuple. ok == false signals end of trace or error;
// check Err to distinguish.
func (r *Reader) Next() (event.Tuple, bool) {
	if r.pos == len(r.buf) && !r.fill() {
		return event.Tuple{}, false
	}
	t := r.buf[r.pos]
	r.pos++
	r.count++
	return t, true
}

// NextBatch copies up to len(buf) tuples of the current block into buf,
// decoding the next block first if the current one is used up. It returns
// 0 only at the end of the trace.
func (r *Reader) NextBatch(buf []event.Tuple) int {
	if r.pos == len(r.buf) && !r.fill() {
		return 0
	}
	n := copy(buf, r.buf[r.pos:])
	r.pos += n
	r.count += uint64(n)
	return n
}

// fill decodes the next CRC-verified block. At the end of the trace it
// returns false, with err set unless the end was clean.
func (r *Reader) fill() bool {
	if r.err != nil {
		return false
	}
	p, ok := r.blocks.next()
	if !ok {
		r.err = r.blocks.res.Err
		return false
	}
	tuples, err := wire.DecodeBatch(p, r.buf)
	if err != nil {
		r.err = fmt.Errorf("%w: block after record %d: %v", ErrCorrupt, r.count, err)
		return false
	}
	if len(tuples) == 0 {
		// The Writer never writes an empty block; refusing one keeps
		// NextBatch from returning 0 before the end.
		r.err = fmt.Errorf("%w: empty block after record %d", ErrCorrupt, r.count)
		return false
	}
	r.buf, r.pos = tuples, 0
	return true
}

// Err returns nil after a clean end of trace and the terminal decode error
// otherwise. Truncation failures match ErrTruncated and consistency
// failures match ErrCorrupt under errors.Is.
func (r *Reader) Err() error { return r.err }

var (
	_ event.Source      = (*Reader)(nil)
	_ event.BatchSource = (*Reader)(nil)
)
