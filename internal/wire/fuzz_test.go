package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"hwprof/internal/event"
)

// FuzzBatch reads its input two ways. As a batch payload, it must decode
// the same way twice — the same tuples or ErrCorrupt both times — and
// accepted tuples must re-encode to a payload that decodes to them again.
// As a tuple list (16 little-endian bytes each), it must survive
// AppendBatch then DecodeBatch unchanged.
func FuzzBatch(f *testing.F) {
	f.Add(AppendBatch(nil, []event.Tuple{{A: 1, B: 2}, {A: 5, B: 5}}))
	f.Add(AppendBatch(nil, []event.Tuple{{A: math.MaxUint64, B: 3}, {A: 0, B: 1 << 40}, {A: 9, B: 9}}))
	f.Add(AppendBatch(nil, nil))
	f.Add([]byte{0x02, 0x91, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		b1, err1 := DecodeBatch(data, nil)
		b2, err2 := DecodeBatch(data, make([]event.Tuple, 0, 8))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("decode verdict flipped between calls: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if !errors.Is(err1, ErrCorrupt) || !errors.Is(err2, ErrCorrupt) {
				t.Fatalf("unclassified decode errors: %v, %v", err1, err2)
			}
		} else {
			if !slices.Equal(b1, b2) {
				t.Fatal("batch decoded differently twice")
			}
			re, err := DecodeBatch(AppendBatch(nil, b1), nil)
			if err != nil || !slices.Equal(re, b1) {
				t.Fatalf("re-encoded batch decodes to %v (%v), want %v", re, err, b1)
			}
		}

		ts := make([]event.Tuple, len(data)/16)
		for i := range ts {
			ts[i] = event.Tuple{A: binary.LittleEndian.Uint64(data[16*i:]), B: binary.LittleEndian.Uint64(data[16*i+8:])}
		}
		got, err := DecodeBatch(AppendBatch(nil, ts), nil)
		if err != nil || !slices.Equal(got, ts) {
			t.Fatalf("tuples %v round-trip to %v (%v)", ts, got, err)
		}
	})
}

// FuzzWire feeds arbitrary bytes to the frame reader and the message
// decoders: whatever the bytes, the reader must classify every failure as a
// sentinel (never panic, never mis-allocate), and any frame it does accept
// must decode deterministically.
func FuzzWire(f *testing.F) {
	// Seed with a valid frame stream so mutations explore near-misses.
	var buf bytes.Buffer
	c := NewConn(duplex{r: &bytes.Buffer{}, w: &buf})
	c.WriteFrame(MsgHello, AppendHello(nil, Hello{Config: testConfig(), Shards: 2, Marked: true}))
	c.WriteFrame(MsgHelloAck, AppendHelloAck(nil, HelloAck{SessionID: 7, Resume: true, QueueDepth: 16, Shards: 2}))
	c.WriteFrame(MsgBatch, AppendBatch(nil, []event.Tuple{{A: 1, B: 2}, {A: 5, B: 5}}))
	c.WriteFrame(MsgProfile, AppendProfile(nil, ProfileMsg{Index: 1, Counts: map[event.Tuple]uint64{{A: 3, B: 4}: 9}}))
	c.WriteFrame(MsgDrain, nil)
	c.WriteFrame(MsgError, AppendError(nil, ErrorMsg{Code: CodeProtocol, Msg: "x"}))
	c.WriteFrame(MsgResume, AppendResume(nil, Resume{SessionID: 7, Intervals: 2, Floor: 20_040}))
	c.WriteFrame(MsgResumeAck, AppendResumeAck(nil, ResumeAck{Intervals: 2, StreamPos: 20_040, Shed: 1}))
	c.WriteFrame(MsgNotice, AppendNotice(nil, Notice{Kind: NoticeResize, Rung: 2, Index: 3, Observed: 40_000,
		Shed: 7, IntervalLength: 20_000, TotalEntries: 1024, NumTables: 4, Shards: 2, Reason: "pressure 0.9 >= 0.75"}))
	c.WriteFrame(MsgSubscribe, AppendSubscribe(nil, Subscribe{Start: 3}))
	c.WriteFrame(MsgSubscribeAck, AppendSubscribeAck(nil, SubscribeAck{Source: "leaf", EpochLength: 10_000, First: 3, Window: 64}))
	c.WriteFrame(MsgEpoch, AppendEpoch(nil, EpochMsg{Source: "agg", Epoch: 3, Partial: true, Children: 2,
		Missing: []string{"leaf-2"}, Counts: map[event.Tuple]uint64{{A: 3, B: 4}: 9}}))
	c.WriteFrame(MsgMark, AppendMark(nil, Mark{Index: 4}))
	f.Add(buf.Bytes())
	f.Add([]byte(Magic + "\x01"))
	f.Add([]byte{MsgBatch, 0x02, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(duplex{r: bytes.NewBuffer(data), w: &bytes.Buffer{}})
		for frames := 0; frames <= len(data); frames++ {
			typ, payload, err := c.ReadFrame()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified frame error: %v", err)
				}
				return
			}
			// An accepted frame's payload must decode — or fail — the same
			// way twice, and decode failures must be classified.
			var err1, err2 error
			switch typ {
			case MsgHello:
				var h1, h2 Hello
				h1, err1 = DecodeHello(payload)
				h2, err2 = DecodeHello(payload)
				if err1 == nil && h1 != h2 {
					t.Fatal("hello decoded differently twice")
				}
			case MsgHelloAck:
				_, err1 = DecodeHelloAck(payload)
				_, err2 = DecodeHelloAck(payload)
			case MsgBatch:
				var b1, b2 []event.Tuple
				b1, err1 = DecodeBatch(payload, nil)
				b2, err2 = DecodeBatch(payload, nil)
				if err1 == nil {
					if len(b1) != len(b2) {
						t.Fatal("batch decoded differently twice")
					}
					for i := range b1 {
						if b1[i] != b2[i] {
							t.Fatal("batch decoded differently twice")
						}
					}
				}
			case MsgProfile:
				var m1 ProfileMsg
				m1, err1 = DecodeProfile(payload)
				_, err2 = DecodeProfile(payload)
				if err1 == nil {
					// Decoded profiles re-encode canonically: encode → decode
					// → encode must be a fixed point (sorted, delta-coded).
					enc := AppendProfile(nil, m1)
					if !bytes.Equal(AppendProfile(nil, m1), enc) {
						t.Fatal("profile re-encoding is not deterministic")
					}
				}
			case MsgError:
				_, err1 = DecodeError(payload)
				_, err2 = DecodeError(payload)
			case MsgResume:
				var r1, r2 Resume
				r1, err1 = DecodeResume(payload)
				r2, err2 = DecodeResume(payload)
				if err1 == nil && r1 != r2 {
					t.Fatal("resume decoded differently twice")
				}
			case MsgResumeAck:
				var a1, a2 ResumeAck
				a1, err1 = DecodeResumeAck(payload)
				a2, err2 = DecodeResumeAck(payload)
				if err1 == nil && a1 != a2 {
					t.Fatal("resume-ack decoded differently twice")
				}
			case MsgNotice:
				var n1, n2 Notice
				n1, err1 = DecodeNotice(payload)
				n2, err2 = DecodeNotice(payload)
				if err1 == nil && n1 != n2 {
					t.Fatal("notice decoded differently twice")
				}
			case MsgSubscribe:
				var s1, s2 Subscribe
				s1, err1 = DecodeSubscribe(payload)
				s2, err2 = DecodeSubscribe(payload)
				if err1 == nil && s1 != s2 {
					t.Fatal("subscribe decoded differently twice")
				}
			case MsgSubscribeAck:
				var a1, a2 SubscribeAck
				a1, err1 = DecodeSubscribeAck(payload)
				a2, err2 = DecodeSubscribeAck(payload)
				if err1 == nil && a1 != a2 {
					t.Fatal("subscribe-ack decoded differently twice")
				}
			case MsgEpoch:
				var e1 EpochMsg
				e1, err1 = DecodeEpoch(payload)
				_, err2 = DecodeEpoch(payload)
				if err1 == nil {
					// Decoded epochs re-encode canonically, like profiles.
					enc := AppendEpoch(nil, e1)
					if !bytes.Equal(AppendEpoch(nil, e1), enc) {
						t.Fatal("epoch re-encoding is not deterministic")
					}
				}
			case MsgMark:
				var m1, m2 Mark
				m1, err1 = DecodeMark(payload)
				m2, err2 = DecodeMark(payload)
				if err1 == nil && m1 != m2 {
					t.Fatal("mark decoded differently twice")
				}
			}
			for _, err := range []error{err1, err2} {
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified decode error: %v", err)
				}
			}
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("decode verdict flipped between calls: %v vs %v", err1, err2)
			}
		}
	})
}
