// Package trace implements a compact binary format for tuple streams, the
// stand-in for the ATOM-instrumented program traces the paper profiled.
//
// Format (version 2; the Reader refuses any other version byte):
//
//	header:  magic "HWPT" | version byte | kind byte
//	blocks:  uvarint(payloadLen > 0), payloadLen bytes of records, then a
//	         4-byte little-endian CRC32 (IEEE) of the payload; records
//	         never straddle a block boundary
//	end:     uvarint(0) terminator
//	footer:  uvarint(recordCount) | 4-byte little-endian CRC32 (IEEE)
//	         over every block payload byte in order
//
// Each record is uvarint(zigzag(ΔA)) then uvarint(zigzag(ΔB)), where
// ΔA/ΔB are deltas from the previous record. Delta + zigzag + varint makes
// real instruction streams (monotone-ish PCs, small value ranges) compress
// to a few bytes per event, which matters when experiments stream hundreds
// of millions of events through files.
//
// The framing exists for fault tolerance: a stream always ends with the
// terminator and footer, so the Reader can tell a cleanly finished trace
// from one that was cut off (ErrTruncated), and the checksums catch bit
// flips and in-place corruption (ErrCorrupt). Each block is verified
// against its own CRC before any record in it is delivered, so corruption
// is detected promptly even by readers that consume only a prefix of the
// stream; the footer's stream-wide count and CRC close the loop for full
// reads.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hwprof/internal/event"
)

// Magic identifies a hwprof trace file.
const Magic = "HWPT"

// Version is the format version: delta-varint records framed in
// length-prefixed blocks with a CRC32-checked footer.
const Version = 2

// ErrBadMagic is returned when a stream does not begin with Magic.
var ErrBadMagic = errors.New("trace: bad magic, not a hwprof trace")

// ErrTruncated reports a trace that ends before its format says it may:
// mid-block, or before the terminator and footer.
var ErrTruncated = errors.New("trace: truncated trace")

// ErrCorrupt reports a trace whose bytes are present but inconsistent: a
// failed checksum, a record-count mismatch, or framing that cannot be
// decoded.
var ErrCorrupt = errors.New("trace: corrupt trace")

// blockTarget is the payload size at which the Writer emits a block. A
// record can follow the target byte, so blocks run at most blockTarget+39
// bytes; maxBlockLen gives readers a hard validity bound above that.
const (
	blockTarget = 1 << 15
	maxBlockLen = 1 << 16
)

// crcTable is the footer checksum polynomial (CRC32, IEEE).
var crcTable = crc32.IEEETable

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer streams tuples into an io.Writer in trace format. Close
// finalizes the stream; a trace without its footer reads back as
// truncated, which is exactly the point.
type Writer struct {
	w       *bufio.Writer
	prev    event.Tuple
	scratch [2 * binary.MaxVarintLen64]byte
	count   uint64

	// The pending block payload and the running payload CRC.
	block []byte
	crc   uint32

	closed bool
}

// NewWriter writes a trace header for the given tuple kind and returns a
// Writer. Call Close when done — the footer is what lets readers
// distinguish a finished trace from a truncated one.
func NewWriter(w io.Writer, kind event.Kind) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	if err := bw.WriteByte(Version); err != nil {
		return nil, fmt.Errorf("trace: writing version: %w", err)
	}
	if err := bw.WriteByte(byte(kind)); err != nil {
		return nil, fmt.Errorf("trace: writing kind: %w", err)
	}
	return &Writer{w: bw, block: make([]byte, 0, blockTarget+2*binary.MaxVarintLen64)}, nil
}

// Write appends one tuple to the trace.
func (w *Writer) Write(t event.Tuple) error {
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	n := binary.PutUvarint(w.scratch[:], zigzag(int64(t.A)-int64(w.prev.A)))
	n += binary.PutUvarint(w.scratch[n:], zigzag(int64(t.B)-int64(w.prev.B)))
	w.block = append(w.block, w.scratch[:n]...)
	if len(w.block) >= blockTarget {
		if err := w.emitBlock(); err != nil {
			return fmt.Errorf("trace: writing record %d: %w", w.count, err)
		}
	}
	w.prev = t
	w.count++
	return nil
}

// emitBlock writes the pending payload as one length-prefixed,
// CRC-trailed block and folds it into the running stream checksum.
func (w *Writer) emitBlock() error {
	n := binary.PutUvarint(w.scratch[:], uint64(len(w.block)))
	if _, err := w.w.Write(w.scratch[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.block); err != nil {
		return err
	}
	blockCRC := crc32.Checksum(w.block, crcTable)
	binary.LittleEndian.PutUint32(w.scratch[:4], blockCRC)
	if _, err := w.w.Write(w.scratch[:4]); err != nil {
		return err
	}
	w.crc = crc32.Update(w.crc, crcTable, w.block)
	w.block = w.block[:0]
	return nil
}

// Count returns the number of tuples written so far.
func (w *Writer) Count() uint64 { return w.count }

// Close finalizes the trace — the last block, the terminator and the
// count+CRC32 footer — and flushes everything to the underlying writer. It does not close the underlying writer. Close is idempotent;
// Write after Close is an error.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.block) > 0 {
		if err := w.emitBlock(); err != nil {
			return fmt.Errorf("trace: final block: %w", err)
		}
	}
	n := binary.PutUvarint(w.scratch[:], 0) // terminator
	n += binary.PutUvarint(w.scratch[n:], w.count)
	binary.LittleEndian.PutUint32(w.scratch[n:], w.crc)
	if _, err := w.w.Write(w.scratch[:n+4]); err != nil {
		return fmt.Errorf("trace: footer: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Reader streams tuples out of a trace. It implements event.Source: Next
// returning false means the stream ended, and Err reports whether the end
// was the trace's genuine end or a truncation/corruption failure.
type Reader struct {
	r     *bufio.Reader
	kind  event.Kind
	prev  event.Tuple
	count uint64
	err   error

	// The current block's payload, the decode position within it, the
	// running CRC over all payloads, and whether the footer has been seen
	// and verified.
	block []byte
	pos   int
	crc   uint32
	done  bool
}

// NewReader validates the header of r and returns a Reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	return &Reader{r: br, kind: event.Kind(hdr[5])}, nil
}

// Kind returns the tuple kind declared in the trace header.
func (r *Reader) Kind() event.Kind { return r.kind }

// Count returns the number of records decoded so far.
func (r *Reader) Count() uint64 { return r.count }

// Next returns the next tuple. ok == false signals end of trace or error;
// check Err to distinguish.
func (r *Reader) Next() (event.Tuple, bool) {
	if r.err != nil || r.done {
		return event.Tuple{}, false
	}
	da, db, ok := r.nextRecord()
	if !ok {
		return event.Tuple{}, false
	}
	r.prev.A = uint64(int64(r.prev.A) + unzigzag(da))
	r.prev.B = uint64(int64(r.prev.B) + unzigzag(db))
	r.count++
	return r.prev, true
}

// nextRecord decodes one record out of the current block, loading blocks
// (and ultimately verifying the footer) as needed.
func (r *Reader) nextRecord() (da, db uint64, ok bool) {
	for r.pos == len(r.block) {
		if !r.loadBlock() {
			return 0, 0, false
		}
	}
	da, n := binary.Uvarint(r.block[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("%w: record %d overruns its block", ErrCorrupt, r.count)
		return 0, 0, false
	}
	r.pos += n
	db, n = binary.Uvarint(r.block[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("%w: record %d overruns its block", ErrCorrupt, r.count)
		return 0, 0, false
	}
	r.pos += n
	return da, db, true
}

// loadBlock reads the next block header. On the terminator it reads and
// verifies the footer, setting done on success. It returns whether a fresh
// non-empty block is ready to decode.
func (r *Reader) loadBlock() bool {
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		// A trace must end with terminator+footer, so EOF here — at a
		// block boundary — still means the file was cut off.
		r.err = fmt.Errorf("%w: stream ends before footer: %w", ErrTruncated, err)
		return false
	}
	if n == 0 {
		r.readFooter()
		return false
	}
	if n > maxBlockLen {
		r.err = fmt.Errorf("%w: block length %d exceeds limit %d", ErrCorrupt, n, maxBlockLen)
		return false
	}
	if uint64(cap(r.block)) < n {
		r.block = make([]byte, n)
	}
	r.block = r.block[:n]
	if _, err := io.ReadFull(r.r, r.block); err != nil {
		r.err = fmt.Errorf("%w: stream ends mid-block: %w", ErrTruncated, err)
		return false
	}
	// Verify the block against its own CRC before delivering anything from
	// it: corruption must surface even to readers that stop before the
	// footer.
	var crcBytes [4]byte
	if _, err := io.ReadFull(r.r, crcBytes[:]); err != nil {
		r.err = fmt.Errorf("%w: stream ends mid-block: %w", ErrTruncated, err)
		return false
	}
	got := crc32.Checksum(r.block, crcTable)
	if want := binary.LittleEndian.Uint32(crcBytes[:]); want != got {
		r.err = fmt.Errorf("%w: block checksum mismatch at record %d: stored %#x, computed %#x",
			ErrCorrupt, r.count, want, got)
		return false
	}
	r.crc = crc32.Update(r.crc, crcTable, r.block)
	r.pos = 0
	return true
}

// readFooter verifies the record count and checksum that close a trace.
func (r *Reader) readFooter() {
	count, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: stream ends mid-footer: %w", ErrTruncated, err)
		return
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(r.r, crcBytes[:]); err != nil {
		r.err = fmt.Errorf("%w: stream ends mid-footer: %w", ErrTruncated, err)
		return
	}
	if count != r.count {
		r.err = fmt.Errorf("%w: footer declares %d records, decoded %d", ErrCorrupt, count, r.count)
		return
	}
	if want := binary.LittleEndian.Uint32(crcBytes[:]); want != r.crc {
		r.err = fmt.Errorf("%w: checksum mismatch: footer %#x, computed %#x", ErrCorrupt, want, r.crc)
		return
	}
	r.done = true
}

// Err returns nil after a clean end of trace and the terminal decode error
// otherwise. Truncation failures match ErrTruncated and consistency
// failures match ErrCorrupt under errors.Is.
func (r *Reader) Err() error { return r.err }

var _ event.Source = (*Reader)(nil)
