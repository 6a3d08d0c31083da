package trace

// The block layer: CRC-per-block framing of arbitrary payloads, shared by
// trace files (each payload one batch of tuples) and the session journal
// in internal/journal (each payload one record). A block stream is a
// sequence of
//
//	uvarint(payloadLen > 0) | payload | 4-byte LE CRC32 (IEEE) of payload
//
// optionally closed by the uvarint(0) terminator and a footer of
// uvarint(blockCount) plus a CRC32 over every payload byte in order. A
// finished stream ends there: bytes after the footer make it corrupt.
//
// The layer exists for crash recovery: a stream cut off at any byte
// offset still yields every block whose CRC verifies, and ScanBlocks
// reports the exact byte offset after the last valid block, so a caller
// can truncate the torn tail (or a finished stream's footer) and resume
// appending with ResumeBlockWriter as if the cut never happened.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// maxBlockLen bounds a block payload, so a corrupt length prefix cannot
// make a reader allocate more.
const maxBlockLen = 1 << 16

// crcTable is the block checksum polynomial (CRC32, IEEE).
var crcTable = crc32.IEEETable

// uvarintLen is the length of v's shortest uvarint encoding.
func uvarintLen(v uint64) int {
	var scratch [binary.MaxVarintLen64]byte
	return binary.PutUvarint(scratch[:], v)
}

// BlockWriter emits CRC-framed blocks of arbitrary payloads. It does not
// buffer: every Append issues exactly one Write of the whole frame to the
// underlying writer, so a crash tears at most the final frame.
type BlockWriter struct {
	w        io.Writer
	buf      []byte
	blocks   uint64
	crc      uint32
	finished bool
}

// NewBlockWriter starts a block stream on w, positioned after whatever
// header the caller wrote.
func NewBlockWriter(w io.Writer) *BlockWriter { return &BlockWriter{w: w} }

// ResumeBlockWriter continues a block stream whose valid prefix holds
// blocks blocks with running payload CRC crc — the ScanBlocks results —
// with w positioned (and truncated) at the end of that prefix.
func ResumeBlockWriter(w io.Writer, blocks uint64, crc uint32) *BlockWriter {
	return &BlockWriter{w: w, blocks: blocks, crc: crc}
}

// FrameLen returns the encoded size of a block with an n-byte payload.
func FrameLen(n int) int64 {
	return int64(uvarintLen(uint64(n)) + n + 4)
}

// Append writes one payload as a CRC-framed block.
func (bw *BlockWriter) Append(payload []byte) error {
	if bw.finished {
		return fmt.Errorf("trace: block append after Finish")
	}
	if len(payload) == 0 || len(payload) > maxBlockLen {
		return fmt.Errorf("trace: block payload length %d outside (0, %d]", len(payload), maxBlockLen)
	}
	bw.buf = binary.AppendUvarint(bw.buf[:0], uint64(len(payload)))
	bw.buf = append(bw.buf, payload...)
	bw.buf = binary.LittleEndian.AppendUint32(bw.buf, crc32.Checksum(payload, crcTable))
	if _, err := bw.w.Write(bw.buf); err != nil {
		return fmt.Errorf("trace: writing block %d: %w", bw.blocks, err)
	}
	bw.crc = crc32.Update(bw.crc, crcTable, payload)
	bw.blocks++
	return nil
}

// Finish closes the stream with the terminator and the count+CRC footer.
// Idempotent; Append after Finish is an error.
func (bw *BlockWriter) Finish() error {
	if bw.finished {
		return nil
	}
	bw.finished = true
	bw.buf = binary.AppendUvarint(bw.buf[:0], 0)
	bw.buf = binary.AppendUvarint(bw.buf, bw.blocks)
	bw.buf = binary.LittleEndian.AppendUint32(bw.buf, bw.crc)
	if _, err := bw.w.Write(bw.buf); err != nil {
		return fmt.Errorf("trace: block footer: %w", err)
	}
	return nil
}

// ScanResult describes the valid prefix of a block stream.
type ScanResult struct {
	// Clean reports that the terminator and footer were present and
	// verified: the stream was finished, not cut off.
	Clean bool

	// Blocks is the number of CRC-valid blocks delivered.
	Blocks uint64

	// CRC is the running payload checksum over those blocks — together
	// with Blocks, the ResumeBlockWriter state.
	CRC uint32

	// Valid is the byte offset, from where scanning began, just after the
	// last valid block — excluding any terminator and footer, clean or
	// not. Truncating the stream here and resuming with
	// ResumeBlockWriter(…, Blocks, CRC) yields a stream whose valid prefix
	// is unchanged; this is how a finished stream is reopened.
	Valid int64

	// Err is nil when Clean, and otherwise classifies the tail:
	// ErrTruncated for a stream cut off mid-frame or before its footer (or
	// an I/O error, wrapped), ErrCorrupt for a present-but-inconsistent
	// frame (checksum or framing failure, bytes after the footer).
	// Everything before Valid is unaffected either way.
	Err error
}

// countingReader counts bytes consumed off a bufio.Reader so the block
// reader can report exact frame offsets.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// blockReader pulls the payloads of a block stream one at a time, each
// verified against its CRC before it is returned. It is the one loop that
// reads block streams: ScanBlocks drives it for the journal, and the trace
// Reader decodes the payloads it returns.
type blockReader struct {
	r     countingReader
	block []byte
	res   ScanResult
}

func newBlockReader(r io.Reader) *blockReader {
	return &blockReader{r: countingReader{r: bufio.NewReaderSize(r, 1<<16)}}
}

// next returns the next CRC-valid payload, in a buffer reused by the next
// call. At the end of the stream, clean or not, it returns false, and res
// is final.
func (b *blockReader) next() ([]byte, bool) {
	if b.res.Clean || b.res.Err != nil {
		return nil, false
	}
	n, err := binary.ReadUvarint(&b.r)
	if err != nil {
		return b.end(fmt.Errorf("%w: stream ends before footer: %w", ErrTruncated, err))
	}
	if n == 0 {
		return b.end(b.footer())
	}
	if n > maxBlockLen {
		return b.end(fmt.Errorf("%w: block length %d exceeds limit %d", ErrCorrupt, n, maxBlockLen))
	}
	if uint64(cap(b.block)) < n {
		b.block = make([]byte, n)
	}
	b.block = b.block[:n]
	if _, err := io.ReadFull(&b.r, b.block); err != nil {
		return b.end(fmt.Errorf("%w: stream ends mid-block: %w", ErrTruncated, err))
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(&b.r, crcBytes[:]); err != nil {
		return b.end(fmt.Errorf("%w: stream ends mid-block: %w", ErrTruncated, err))
	}
	got := crc32.Checksum(b.block, crcTable)
	if want := binary.LittleEndian.Uint32(crcBytes[:]); want != got {
		return b.end(fmt.Errorf("%w: block %d checksum mismatch: stored %#x, computed %#x",
			ErrCorrupt, b.res.Blocks, want, got))
	}
	b.res.CRC = crc32.Update(b.res.CRC, crcTable, b.block)
	b.res.Blocks++
	b.res.Valid = b.r.n
	return b.block, true
}

// end records how the stream ended; res.Valid already stands after the
// last valid block.
func (b *blockReader) end(err error) ([]byte, bool) {
	b.res.Clean, b.res.Err = err == nil, err
	return nil, false
}

// footer reads the block count and payload CRC that follow the terminator,
// verifies them, and requires the stream to end there. BlockWriter writes
// the terminator and count in their shortest varint forms, so any other
// form is not its output.
func (b *blockReader) footer() error {
	count, err := binary.ReadUvarint(&b.r)
	if err != nil {
		return fmt.Errorf("%w: stream ends mid-footer: %w", ErrTruncated, err)
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(&b.r, crcBytes[:]); err != nil {
		return fmt.Errorf("%w: stream ends mid-footer: %w", ErrTruncated, err)
	}
	if count != b.res.Blocks {
		return fmt.Errorf("%w: footer declares %d blocks, decoded %d", ErrCorrupt, count, b.res.Blocks)
	}
	if want := binary.LittleEndian.Uint32(crcBytes[:]); want != b.res.CRC {
		return fmt.Errorf("%w: checksum mismatch: footer %#x, computed %#x", ErrCorrupt, want, b.res.CRC)
	}
	if b.r.n-b.res.Valid != int64(1+uvarintLen(count)+4) {
		return fmt.Errorf("%w: footer varints not in shortest form", ErrCorrupt)
	}
	switch _, err := b.r.ReadByte(); {
	case err == nil:
		return fmt.Errorf("%w: bytes after the footer", ErrCorrupt)
	case !errors.Is(err, io.EOF):
		return fmt.Errorf("%w: reading past the footer: %w", ErrTruncated, err)
	}
	return nil
}

// ScanBlocks reads a block stream from r (positioned after the caller's
// header), invoking fn — if non-nil — for each CRC-valid payload. The
// payload slice is reused between calls; fn must not retain it. A torn or
// corrupt tail is not an error: it is reported in the result, with every
// block before it already delivered. The error return is reserved for fn
// failures, which abort the scan.
func ScanBlocks(r io.Reader, fn func(payload []byte) error) (ScanResult, error) {
	br := newBlockReader(r)
	for {
		p, ok := br.next()
		if !ok {
			return br.res, nil
		}
		if fn != nil {
			if err := fn(p); err != nil {
				return br.res, err
			}
		}
	}
}
