package trace

import (
	"bytes"
	"testing"

	"hwprof/internal/event"
)

// fuzzSeed serializes tuples for the fuzz corpus.
func fuzzSeed(f *testing.F, tuples []event.Tuple) []byte {
	f.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, event.KindValue)
	if err != nil {
		f.Fatal(err)
	}
	for _, tp := range tuples {
		if err := w.Write(tp); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader throws arbitrary bytes at the trace reader and checks the
// robustness invariants the fault-tolerance layer relies on: the reader
// never panics, never loops forever, reports end-of-stream exactly once,
// and never reports both a clean end and an error. Reads alternate Next
// and NextBatch, which share one position.
func FuzzReader(f *testing.F) {
	tuples := []event.Tuple{
		{A: 0x400000, B: 7}, {A: 0x400004, B: 7}, {A: 0, B: 0},
		{A: ^uint64(0), B: ^uint64(0)}, {A: 1 << 40, B: 3},
	}
	valid := fuzzSeed(f, tuples)
	f.Add(valid)
	// Truncations, including cuts inside the footer.
	for _, cut := range []int{7, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// A bit flip in the payload, and garbage after a valid header.
	flipped := append([]byte(nil), valid...)
	flipped[8] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{'H', 'W', 'P', 'T', Version, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header: rejecting it is the correct outcome
		}
		// A trace can hold at most one record per payload byte, so this
		// bound can only trip on a decoder bug, not a legitimate input.
		limit := uint64(len(data)) + 1
		buf := make([]event.Tuple, 3)
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			if r.NextBatch(buf) == 0 {
				break
			}
			if r.Count() > limit {
				t.Fatalf("decoded %d records from %d bytes", r.Count(), len(data))
			}
		}
		if _, ok := r.Next(); ok || r.NextBatch(buf) != 0 {
			t.Fatal("reader resumed after reporting end of stream")
		}
		if err := r.Err(); err != nil && r.blocks.res.Clean {
			t.Fatalf("reader reports both clean end and error %v", err)
		}
	})
}
