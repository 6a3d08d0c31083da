package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// buildBlocks encodes payloads as a finished block stream and returns the
// stream plus the byte offset at which each block's frame ends. Writes to
// a bytes.Buffer cannot fail, so encoding errors are test bugs.
func buildBlocks(payloads [][]byte) (stream []byte, frameEnds []int64) {
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf)
	for _, p := range payloads {
		if err := bw.Append(p); err != nil {
			panic(err)
		}
		frameEnds = append(frameEnds, int64(buf.Len()))
	}
	if err := bw.Finish(); err != nil {
		panic(err)
	}
	return buf.Bytes(), frameEnds
}

func testPayloads(rng *rand.Rand, n int) [][]byte {
	payloads := make([][]byte, n)
	for i := range payloads {
		p := make([]byte, 1+rng.Intn(60))
		rng.Read(p)
		payloads[i] = p
	}
	return payloads
}

func collectBlocks(t *testing.T, stream []byte) (ScanResult, [][]byte) {
	t.Helper()
	var got [][]byte
	res, err := ScanBlocks(bytes.NewReader(stream), func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return res, got
}

func TestScanBlocksCleanStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payloads := testPayloads(rng, 17)
	stream, frameEnds := buildBlocks(payloads)
	res, got := collectBlocks(t, stream)
	if !res.Clean || res.Err != nil {
		t.Fatalf("clean stream scanned as %+v", res)
	}
	if res.Blocks != uint64(len(payloads)) || len(got) != len(payloads) {
		t.Fatalf("blocks = %d/%d, want %d", res.Blocks, len(got), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("block %d round-trip mismatch", i)
		}
	}
	// Valid excludes the terminator and footer, as on every other path.
	if want := frameEnds[len(frameEnds)-1]; res.Valid != want {
		t.Fatalf("valid = %d, want %d (the end of the last block)", res.Valid, want)
	}

	// Bytes after a verified footer are not the writer's output.
	res, _ = collectBlocks(t, append(append([]byte(nil), stream...), 0))
	if res.Clean || !errors.Is(res.Err, ErrCorrupt) || res.Valid != frameEnds[len(frameEnds)-1] {
		t.Fatalf("stream with a trailing byte scanned as %+v", res)
	}
}

// TestScanBlocksEveryTornOffset is the torn-write property: for every
// possible cut of the stream, the scan delivers exactly the fully framed
// blocks before the cut, reports ErrTruncated, and places the truncation
// point at the end of the last valid frame — and a writer resumed there
// continues the stream as if the cut never happened.
func TestScanBlocksEveryTornOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	payloads := testPayloads(rng, 9)
	stream, frameEnds := buildBlocks(payloads)
	extra := testPayloads(rng, 3)

	for cut := 0; cut < len(stream); cut++ {
		torn := stream[:cut]
		var delivered int
		res, err := ScanBlocks(bytes.NewReader(torn), func([]byte) error {
			delivered++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: scan: %v", cut, err)
		}
		if res.Clean {
			t.Fatalf("cut %d: torn stream scanned clean", cut)
		}
		if !errors.Is(res.Err, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, res.Err)
		}
		wantBlocks := 0
		for _, end := range frameEnds {
			if int64(cut) >= end {
				wantBlocks++
			}
		}
		if delivered != wantBlocks || int(res.Blocks) != wantBlocks {
			t.Fatalf("cut %d: delivered %d/%d blocks, want %d", cut, delivered, res.Blocks, wantBlocks)
		}
		wantValid := int64(0)
		if wantBlocks > 0 {
			wantValid = frameEnds[wantBlocks-1]
		}
		if res.Valid != wantValid {
			t.Fatalf("cut %d: valid = %d, want %d", cut, res.Valid, wantValid)
		}

		// Truncate at the last valid CRC and append: the result must read
		// back clean with the surviving prefix plus the appended blocks.
		var buf bytes.Buffer
		buf.Write(torn[:res.Valid])
		bw := ResumeBlockWriter(&buf, res.Blocks, res.CRC)
		for _, p := range extra {
			if err := bw.Append(p); err != nil {
				t.Fatalf("cut %d: resumed append: %v", cut, err)
			}
		}
		if err := bw.Finish(); err != nil {
			t.Fatalf("cut %d: resumed finish: %v", cut, err)
		}
		res2, got := collectBlocks(t, buf.Bytes())
		if !res2.Clean || res2.Err != nil {
			t.Fatalf("cut %d: resumed stream scanned as %+v", cut, res2)
		}
		want := append(append([][]byte(nil), payloads[:wantBlocks]...), extra...)
		if len(got) != len(want) {
			t.Fatalf("cut %d: resumed stream has %d blocks, want %d", cut, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: resumed block %d mismatch", cut, i)
			}
		}
	}
}

// TestScanBlocksReopenFinished proves a finished stream can be reopened
// for append: truncating at Valid removes the terminator and footer, and
// the resumed writer re-finishes it consistently.
func TestScanBlocksReopenFinished(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payloads := testPayloads(rng, 5)
	stream, _ := buildBlocks(payloads)
	res, _ := collectBlocks(t, stream)
	if !res.Clean {
		t.Fatalf("scan = %+v, want clean", res)
	}

	var buf bytes.Buffer
	buf.Write(stream[:res.Valid])
	bw := ResumeBlockWriter(&buf, res.Blocks, res.CRC)
	if err := bw.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Finish(); err != nil {
		t.Fatal(err)
	}
	res2, got := collectBlocks(t, buf.Bytes())
	if !res2.Clean || int(res2.Blocks) != len(payloads)+1 {
		t.Fatalf("reopened stream scanned as %+v", res2)
	}
	if !bytes.Equal(got[len(got)-1], []byte("tail")) {
		t.Fatalf("appended block mismatch")
	}
}

// TestScanBlocksCorruptBlock proves a bit flip inside a block surfaces as
// ErrCorrupt with the truncation point before the damaged frame.
func TestScanBlocksCorruptBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	payloads := testPayloads(rng, 6)
	stream, frameEnds := buildBlocks(payloads)

	// Flip a payload byte inside the fourth block.
	mutated := append([]byte(nil), stream...)
	mutated[frameEnds[2]+2] ^= 0x40
	var delivered int
	res, err := ScanBlocks(bytes.NewReader(mutated), func([]byte) error {
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || !errors.Is(res.Err, ErrCorrupt) {
		t.Fatalf("scan of corrupt stream = %+v", res)
	}
	if delivered != 3 || res.Valid != frameEnds[2] {
		t.Fatalf("delivered %d blocks, valid %d; want 3 blocks, valid %d", delivered, res.Valid, frameEnds[2])
	}
}

// TestBlockWriterRejects covers the payload bounds and write-after-finish.
func TestBlockWriterRejects(t *testing.T) {
	bw := NewBlockWriter(&bytes.Buffer{})
	if err := bw.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := bw.Append(make([]byte, maxBlockLen+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := bw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Append([]byte("x")); err == nil {
		t.Fatal("append after finish accepted")
	}
}

// FuzzScanBlocks feeds arbitrary bytes through the scanner: it must never
// panic, never deliver a block that was not written, classify every
// non-clean tail as truncated or corrupt, and call a stream clean only if
// it ends with exactly the terminator and footer BlockWriter would write
// after the blocks delivered.
func FuzzScanBlocks(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	stream, _ := buildBlocks(testPayloads(rng, 4))
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte{})
	// An empty finished stream with one trailing byte, and one whose
	// terminator is in a two-byte varint form.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x30})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ScanBlocks(bytes.NewReader(data), func(p []byte) error {
			if len(p) == 0 {
				return fmt.Errorf("empty block delivered")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean && res.Err == nil {
			t.Fatal("unclean scan with nil Err")
		}
		if res.Valid > int64(len(data)) {
			t.Fatalf("valid offset %d beyond input %d", res.Valid, len(data))
		}
		if res.Clean {
			footer := binary.AppendUvarint([]byte{0}, res.Blocks)
			footer = binary.LittleEndian.AppendUint32(footer, res.CRC)
			if !bytes.Equal(data[res.Valid:], footer) {
				t.Fatalf("clean scan: input after offset %d is %x, want terminator and footer %x",
					res.Valid, data[res.Valid:], footer)
			}
		}
	})
}
