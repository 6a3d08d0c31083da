package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"hwprof/internal/event"
	"hwprof/internal/wire"
	"hwprof/internal/xrand"
)

func roundTrip(t *testing.T, kind event.Kind, tuples []event.Tuple) []event.Tuple {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, kind)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := w.Write(tp); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != uint64(len(tuples)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(tuples))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != kind {
		t.Fatalf("Kind = %v, want %v", r.Kind(), kind)
	}
	var out []event.Tuple
	for {
		tp, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, tp)
	}
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	return out
}

func TestRoundTripBasic(t *testing.T) {
	in := []event.Tuple{
		{A: 0x400000, B: 7}, {A: 0x400004, B: 7}, {A: 0x400000, B: 9},
		{A: 0, B: 0}, {A: ^uint64(0), B: ^uint64(0)},
	}
	out := roundTrip(t, event.KindValue, in)
	if len(out) != len(in) {
		t.Fatalf("got %d tuples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("tuple %d = %v, want %v", i, out[i], in[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	out := roundTrip(t, event.KindEdge, nil)
	if len(out) != 0 {
		t.Fatalf("empty trace yielded %d tuples", len(out))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16 % 2000)
		r := xrand.New(seed)
		in := make([]event.Tuple, n)
		for i := range in {
			in[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, event.KindGeneric)
		if err != nil {
			return false
		}
		for _, tp := range in {
			if w.Write(tp) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for i := range in {
			tp, ok := rd.Next()
			if !ok || tp != in[i] {
				return false
			}
		}
		_, ok := rd.Next()
		return !ok && rd.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionOnStructuredStream(t *testing.T) {
	// PC deltas of ±small and repeated values should cost ~2-3 bytes per
	// record, far below the 16-byte raw encoding.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, event.KindValue)
	pc := uint64(0x400000)
	for i := 0; i < 10000; i++ {
		pc += 4
		if i%100 == 0 {
			pc = 0x400000
		}
		if err := w.Write(event.Tuple{A: pc, B: uint64(i % 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()-6) / 10000
	if perRecord > 4 {
		t.Fatalf("structured stream cost %.2f bytes/record, want <= 4", perRecord)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOPE\x01\x00moredata")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	for _, v := range []byte{0, 1, 2, Version + 1, 0x7f} {
		if _, err := NewReader(bytes.NewReader([]byte{'H', 'W', 'P', 'T', v, 0})); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}

func TestShortHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("HW")))
	if err == nil {
		t.Fatal("short header accepted")
	}
}

// writeTrace serializes tuples into a finished trace.
func writeTrace(t *testing.T, kind event.Kind, tuples []event.Tuple) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, kind)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := w.Write(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains a serialized trace, returning the tuples and the reader's
// final error state.
func readAll(t *testing.T, data []byte) ([]event.Tuple, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []event.Tuple
	for {
		tp, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, tp)
	}
	// The reader must stay ended and keep its error sticky.
	if _, ok := r.Next(); ok {
		t.Fatal("reader kept producing after end of stream")
	}
	return out, r.Err()
}

var truncationTuples = []event.Tuple{
	{A: 1 << 40, B: 2}, {A: 1 << 41, B: 3}, {A: 5, B: 1 << 50},
}

// TestTruncated cuts a trace at every possible byte length and checks
// each prefix reports truncation — the framing makes any cut detectable,
// including cuts at block boundaries.
func TestTruncated(t *testing.T) {
	data := writeTrace(t, event.KindValue, truncationTuples)
	for cut := 6; cut < len(data); cut++ {
		if _, err := readAll(t, data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d of %d: err = %v, want ErrTruncated", cut, len(data), err)
		}
	}
	if _, err := readAll(t, data); err != nil {
		t.Fatalf("uncut trace: %v", err)
	}
}

// TestBitFlip flips one bit at a time across the whole file and checks
// that no flip yields the original tuples with a nil error: every
// corruption is either detected or confined to the header check.
func TestBitFlip(t *testing.T) {
	orig := writeTrace(t, event.KindValue, truncationTuples)
	want, err := readAll(t, orig)
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i < len(orig); i++ { // header bytes are validated by NewReader
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), orig...)
			data[i] ^= 1 << bit
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("flip byte %d bit %d: header rejected: %v", i, bit, err)
			}
			var got []event.Tuple
			for {
				tp, ok := r.Next()
				if !ok {
					break
				}
				got = append(got, tp)
			}
			if r.Err() == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("flip byte %d bit %d: silently changed the decoded stream", i, bit)
			}
			if r.Err() == nil && reflect.DeepEqual(got, want) {
				t.Fatalf("flip byte %d bit %d: undetected corruption", i, bit)
			}
		}
	}
}

// TestPrefixReadDetectsCorruption: a reader that consumes only the first
// records of a multi-block trace must still catch a bit flip in the part
// it reads — the per-block CRC is checked before any record of the block
// is delivered, so integrity does not depend on reaching the footer.
func TestPrefixReadDetectsCorruption(t *testing.T) {
	r := xrand.New(11)
	in := make([]event.Tuple, 20_000)
	for i := range in {
		in[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	data := writeTrace(t, event.KindGeneric, in)
	if n := blockCount(t, data); n < 2 {
		t.Fatalf("need a multi-block trace, got %d blocks", n)
	}
	data[100] ^= 0x08 // inside the first block's payload

	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Ask for just one record — far less than a block, nowhere near the
	// footer.
	if _, ok := rd.Next(); ok {
		t.Fatal("record delivered from a corrupt block")
	}
	if !errors.Is(rd.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", rd.Err())
	}
}

// TestFooterCountMismatch hand-edits the footer's block count.
func TestFooterCountMismatch(t *testing.T) {
	data := writeTrace(t, event.KindValue, truncationTuples)
	// Footer layout: ... 0x00 terminator | uvarint(blocks=1) | crc32. The
	// count is the fifth byte from the end; with 1 block it is one byte.
	if data[len(data)-5] != 1 {
		t.Fatalf("footer block count byte = %d, want 1", data[len(data)-5])
	}
	data[len(data)-5] = 7
	if _, err := readAll(t, data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestWriterCloseIdempotent: double Close is fine, Write after Close is not.
func TestWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, event.KindValue)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(event.Tuple{A: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatal("second Close wrote more bytes")
	}
	if err := w.Write(event.Tuple{A: 2}); err == nil {
		t.Fatal("Write after Close accepted")
	}
}

// TestMultiBlock pushes enough records to span several blocks and checks
// the block framing is invisible to the reader.
func TestMultiBlock(t *testing.T) {
	r := xrand.New(3)
	in := make([]event.Tuple, 40_000)
	for i := range in {
		in[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	data := writeTrace(t, event.KindGeneric, in)
	if n := blockCount(t, data); n < 3 {
		t.Fatalf("expected multi-block trace, got %d blocks", n)
	}
	got, err := readAll(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatal("multi-block round trip diverged")
	}
}

func TestReaderIsSource(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, event.KindValue)
	w.Write(event.Tuple{A: 5, B: 6})
	w.Close()
	r, _ := NewReader(&buf)
	var src event.Source = r
	tp, ok := src.Next()
	if !ok || tp != (event.Tuple{A: 5, B: 6}) {
		t.Fatalf("Source read %v, %v", tp, ok)
	}
	if b, ok := event.Batched(r).(*Reader); !ok || b != r {
		t.Fatal("event.Batched wrapped the reader instead of returning it")
	}
}

// blockCount returns the number of blocks in a finished serialized trace.
func blockCount(t *testing.T, data []byte) uint64 {
	t.Helper()
	res, err := ScanBlocks(bytes.NewReader(data[6:]), nil)
	if err != nil || !res.Clean {
		t.Fatalf("scanning trace blocks: %+v, %v", res, err)
	}
	return res.Blocks
}

// TestNextBatchInterleaved reads a multi-block trace alternating Next and
// NextBatch, with buffers shorter than, about as long as and longer than a
// block: the two share one position, so together they must deliver exactly
// the stream that was written.
func TestNextBatchInterleaved(t *testing.T) {
	r := xrand.New(5)
	in := make([]event.Tuple, 3*blockTuples+123)
	for i := range in {
		in[i] = event.Tuple{A: r.Uint64n(1 << 20), B: r.Uint64()}
	}
	data := writeTrace(t, event.KindGeneric, in)
	if n := blockCount(t, data); n != 4 {
		t.Fatalf("trace has %d blocks, want 4", n)
	}
	for _, n := range []int{1, 7, 2047, 2049, 5000} {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]event.Tuple, n)
		var got []event.Tuple
		for {
			tp, ok := rd.Next()
			if !ok {
				break
			}
			got = append(got, tp)
			k := rd.NextBatch(buf)
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
		}
		if k := rd.NextBatch(buf); k != 0 {
			t.Fatalf("buffer %d: NextBatch delivered %d tuples after the end", n, k)
		}
		if rd.Err() != nil {
			t.Fatalf("buffer %d: %v", n, rd.Err())
		}
		if !reflect.DeepEqual(got, in) || rd.Count() != uint64(len(in)) {
			t.Fatalf("buffer %d: read %d tuples (count %d), want the %d written", n, len(got), rd.Count(), len(in))
		}
	}
}

// TestNextBatchReportsFaults reads a cut and a bit-flipped multi-block
// trace through NextBatch alone: each delivers a prefix of the stream and
// returns 0 only once the reader has ended with the fault's error.
func TestNextBatchReportsFaults(t *testing.T) {
	r := xrand.New(6)
	in := make([]event.Tuple, 4*blockTuples)
	for i := range in {
		in[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	data := writeTrace(t, event.KindGeneric, in)
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x10
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", data[:len(data)*2/3], ErrTruncated},
		{"corrupt", flipped, ErrCorrupt},
	} {
		rd, err := NewReader(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]event.Tuple, 512)
		var got []event.Tuple
		for {
			k := rd.NextBatch(buf)
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
		}
		if !errors.Is(rd.Err(), tc.want) {
			t.Fatalf("%s: Err = %v, want %v", tc.name, rd.Err(), tc.want)
		}
		if len(got) == 0 || len(got) >= len(in) || !reflect.DeepEqual(got, in[:len(got)]) {
			t.Fatalf("%s: delivered %d tuples, want a proper prefix of the %d written", tc.name, len(got), len(in))
		}
	}
}

// TestUndecodableBlockIsCorrupt: a block whose CRC verifies but whose
// payload is not a batch the Writer writes — no tuples, or record widths
// outside 1..8 — is refused as corrupt, before the blocks after it.
func TestUndecodableBlockIsCorrupt(t *testing.T) {
	for _, payload := range [][]byte{wire.AppendBatch(nil, nil), {1, 0x09, 0}} {
		var buf bytes.Buffer
		buf.Write([]byte{'H', 'W', 'P', 'T', Version, byte(event.KindValue)})
		bw := NewBlockWriter(&buf)
		for _, p := range [][]byte{payload, wire.AppendBatch(nil, truncationTuples)} {
			if err := bw.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Finish(); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if k := rd.NextBatch(make([]event.Tuple, 8)); k != 0 {
			t.Fatalf("payload %x: NextBatch delivered %d tuples", payload, k)
		}
		if !errors.Is(rd.Err(), ErrCorrupt) {
			t.Fatalf("payload %x: Err = %v, want ErrCorrupt", payload, rd.Err())
		}
	}
}

func TestWriteErrorPropagates(t *testing.T) {
	w, err := NewWriter(failAfter{n: 10}, event.KindValue)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the 64 KiB buffer until the underlying writer's failure surfaces.
	var wErr error
	for i := 0; i < 1_000_000; i++ {
		if wErr = w.Write(event.Tuple{A: xrand.Mix64(uint64(i)), B: xrand.Mix64(uint64(i) + 1)}); wErr != nil {
			break
		}
	}
	if wErr == nil {
		wErr = w.Close()
	}
	if wErr == nil {
		t.Fatal("write to failing writer reported no error")
	}
}

type failAfter struct{ n int }

func (f failAfter) Write(p []byte) (int, error) {
	return 0, io.ErrClosedPipe
}

func BenchmarkWrite(b *testing.B) {
	w, _ := NewWriter(io.Discard, event.KindValue)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = w.Write(event.Tuple{A: uint64(i) * 4, B: uint64(i & 7)})
	}
}

func BenchmarkReadWrite1M(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, event.KindValue)
	for i := 0; i < 1_000_000; i++ {
		w.Write(event.Tuple{A: uint64(i) * 4, B: uint64(i & 7)})
	}
	w.Close()
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := NewReader(bytes.NewReader(data))
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}

// TestReaderNeverPanicsOnGarbage feeds pseudo-random bytes after a valid
// header and checks the reader fails cleanly (no panic, sticky error or
// clean EOF) — robustness against corrupt trace files.
func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	r := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		n := int(r.Uint64n(64))
		data := append([]byte{'H', 'W', 'P', 'T', Version, 0}, make([]byte, n)...)
		for i := 6; i < len(data); i++ {
			data[i] = byte(r.Uint64())
		}
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("header rejected: %v", err)
		}
		for {
			if _, ok := rd.Next(); !ok {
				break
			}
		}
		// Either clean EOF or a truncation error; both acceptable.
		_ = rd.Err()
	}
}

// TestHeaderGarbage throws random short prefixes at NewReader.
func TestHeaderGarbage(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		n := int(r.Uint64n(8))
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		if rd, err := NewReader(bytes.NewReader(data)); err == nil {
			// A 6+ byte random prefix matching "HWPT\x03" is astronomically
			// unlikely; if it happens the reader must still behave.
			rd.Next()
		}
	}
}
