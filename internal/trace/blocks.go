package trace

// The generic block layer: the trace's CRC-per-block framing, detached from
// tuple records so other stream formats — the session journal in
// internal/journal — can reuse it for arbitrary payloads. A block stream
// is a sequence of
//
//	uvarint(payloadLen > 0) | payload | 4-byte LE CRC32 (IEEE) of payload
//
// optionally closed by the uvarint(0) terminator and a footer of
// uvarint(blockCount) plus a CRC32 over every payload byte in order —
// exactly the trace shape, with the footer counting blocks instead of
// records (the block layer does not know what a record is).
//
// The layer exists for crash recovery: a stream cut off at any byte
// offset still yields every block whose CRC verifies, and ScanBlocks
// reports the exact byte offset after the last valid block, so a caller
// can truncate the torn tail and resume appending with ResumeBlockWriter
// as if the cut never happened.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

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
	var scratch [binary.MaxVarintLen64]byte
	return int64(binary.PutUvarint(scratch[:], uint64(n))) + int64(n) + 4
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

// Blocks returns the number of blocks written (including any resumed
// prefix).
func (bw *BlockWriter) Blocks() uint64 { return bw.blocks }

// CRC returns the running payload checksum.
func (bw *BlockWriter) CRC() uint32 { return bw.crc }

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
	// last valid block — excluding any terminator and footer. Truncating
	// the stream here and resuming with ResumeBlockWriter(…, Blocks, CRC)
	// yields a stream whose valid prefix is unchanged.
	Valid int64

	// Err is nil when Clean, and otherwise classifies the tail:
	// ErrTruncated for a stream cut off mid-frame or before its footer,
	// ErrCorrupt for a present-but-inconsistent frame (checksum or framing
	// failure). Everything before Valid is unaffected either way.
	Err error
}

// countingReader counts bytes consumed off a bufio.Reader so ScanBlocks
// can report exact frame offsets.
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

// ScanBlocks reads a block stream from r (positioned after the caller's
// header), invoking fn — if non-nil — for each CRC-valid payload. The
// payload slice is reused between calls; fn must not retain it. A torn or
// corrupt tail is not an error: it is reported in the result, with every
// block before it already delivered. The error return is reserved for fn
// failures, which abort the scan.
func ScanBlocks(r io.Reader, fn func(payload []byte) error) (ScanResult, error) {
	cr := &countingReader{r: bufio.NewReaderSize(r, 1<<16)}
	var res ScanResult
	var block []byte
	for {
		mark := cr.n
		n, err := binary.ReadUvarint(cr)
		if err != nil {
			res.Valid, res.Err = mark, fmt.Errorf("%w: stream ends before footer: %w", ErrTruncated, err)
			return res, nil
		}
		if n == 0 {
			count, err := binary.ReadUvarint(cr)
			if err != nil {
				res.Valid, res.Err = mark, fmt.Errorf("%w: stream ends mid-footer: %w", ErrTruncated, err)
				return res, nil
			}
			var crcBytes [4]byte
			if _, err := io.ReadFull(cr, crcBytes[:]); err != nil {
				res.Valid, res.Err = mark, fmt.Errorf("%w: stream ends mid-footer: %w", ErrTruncated, err)
				return res, nil
			}
			if count != res.Blocks {
				res.Valid, res.Err = mark, fmt.Errorf("%w: footer declares %d blocks, decoded %d", ErrCorrupt, count, res.Blocks)
				return res, nil
			}
			if want := binary.LittleEndian.Uint32(crcBytes[:]); want != res.CRC {
				res.Valid, res.Err = mark, fmt.Errorf("%w: checksum mismatch: footer %#x, computed %#x", ErrCorrupt, want, res.CRC)
				return res, nil
			}
			res.Clean, res.Valid = true, cr.n
			return res, nil
		}
		if n > maxBlockLen {
			res.Valid, res.Err = mark, fmt.Errorf("%w: block length %d exceeds limit %d", ErrCorrupt, n, maxBlockLen)
			return res, nil
		}
		if uint64(cap(block)) < n {
			block = make([]byte, n)
		}
		block = block[:n]
		if _, err := io.ReadFull(cr, block); err != nil {
			res.Valid, res.Err = mark, fmt.Errorf("%w: stream ends mid-block: %w", ErrTruncated, err)
			return res, nil
		}
		var crcBytes [4]byte
		if _, err := io.ReadFull(cr, crcBytes[:]); err != nil {
			res.Valid, res.Err = mark, fmt.Errorf("%w: stream ends mid-block: %w", ErrTruncated, err)
			return res, nil
		}
		got := crc32.Checksum(block, crcTable)
		if want := binary.LittleEndian.Uint32(crcBytes[:]); want != got {
			res.Valid, res.Err = mark, fmt.Errorf("%w: block %d checksum mismatch: stored %#x, computed %#x",
				ErrCorrupt, res.Blocks, want, got)
			return res, nil
		}
		res.CRC = crc32.Update(res.CRC, crcTable, block)
		res.Blocks++
		res.Valid = cr.n
		if fn != nil {
			if err := fn(block); err != nil {
				return res, err
			}
		}
	}
}
