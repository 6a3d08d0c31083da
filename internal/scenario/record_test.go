package scenario

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

const recText = `
scenario rec
seed 21
interval 1000
phase warm 2000 {
    source workload sis
}
phase flood 2000 {
    source collide sis mass=0.3
}
gate net-error 60
`

func TestRecordReplayByteIdentical(t *testing.T) {
	rec, res, err := Record(context.Background(), recText)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if res.Intervals != 4 || len(rec.Digests) != 4 {
		t.Fatalf("recorded %d intervals, %d digests; want 4", res.Intervals, len(rec.Digests))
	}
	replayed, err := rec.Replay(context.Background())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if replayed.Mean != res.Mean {
		t.Fatalf("replay re-measured a different mean: %+v vs %+v", replayed.Mean, res.Mean)
	}
}

func TestRecordingEncodeDecodeRoundTrip(t *testing.T) {
	rec, _, err := Record(context.Background(), recText)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	enc := rec.Encode()
	dec, err := DecodeRecording(enc)
	if err != nil {
		t.Fatalf("DecodeRecording: %v", err)
	}
	if dec.Text != rec.Text || !bytes.Equal(dec.Trace, rec.Trace) {
		t.Fatal("round trip altered the recording")
	}
	if len(dec.Digests) != len(rec.Digests) {
		t.Fatalf("digest count %d, want %d", len(dec.Digests), len(rec.Digests))
	}
	for i := range dec.Digests {
		if dec.Digests[i] != rec.Digests[i] {
			t.Fatalf("digest %d altered by round trip", i)
		}
	}
	if _, err := dec.Replay(context.Background()); err != nil {
		t.Fatalf("decoded recording fails replay: %v", err)
	}
}

func TestRecordingDetectsCorruption(t *testing.T) {
	rec, _, err := Record(context.Background(), recText)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	enc := rec.Encode()
	for _, off := range []int{0, 4, len(enc) / 2, len(enc) - 2} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		if _, err := DecodeRecording(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", off)
		}
	}
	if _, err := DecodeRecording(enc[:8]); err == nil {
		t.Fatal("truncation went undetected")
	}
}

// resealed appends body's CRC32, the trailer DecodeRecording checks first.
func resealed(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// TestRecordingDigestCountOverflow pins a correctly sealed recording whose
// digest count times four wraps to the zero bytes that follow it: the
// decoder must reject it instead of allocating 1<<62 digests.
func TestRecordingDigestCountOverflow(t *testing.T) {
	body := append([]byte(nil), recordMagic[:]...)
	body = append(body, recordVersion)
	body = binary.AppendUvarint(body, uint64(len(recText)))
	body = append(body, recText...)
	body = binary.AppendUvarint(body, 0) // empty trace
	body = binary.AppendUvarint(body, 1<<62)
	if _, err := DecodeRecording(resealed(body)); err == nil {
		t.Fatal("digest count 1<<62 with no digest bytes was accepted")
	}
}

// TestRecordingRefusesOtherVersions: a correctly sealed recording at any
// other version, such as a version-1 recording embedding a version-2
// trace, is refused by DecodeRecording with the version named.
func TestRecordingRefusesOtherVersions(t *testing.T) {
	rec, _, err := Record(context.Background(), "scenario v\nseed 3\ninterval 64\nphase a 128 {\n    source workload gcc\n}\n")
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	enc := rec.Encode()
	for _, v := range []byte{1, recordVersion + 1} {
		bad := append([]byte(nil), enc[:len(enc)-4]...)
		bad[len(recordMagic)] = v
		_, err := DecodeRecording(resealed(bad))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("version %d recording: err = %v, want a refusal naming the version", v, err)
		}
	}
}

// FuzzRecording feeds arbitrary bytes to the HWSR decoder, once as given
// and once with the trailing checksum recomputed so that mutations reach
// the framing behind it. Decoding must never panic, and a recording it
// accepts must encode to bytes that decode to the same recording.
func FuzzRecording(f *testing.F) {
	// A two-interval recording keeps the seed near 1 KB; recText's 45 KB
	// would spend the fuzzing budget minimizing.
	const small = "scenario fz\nseed 3\ninterval 64\nphase a 128 {\n    source workload gcc\n}\n"
	rec, _, err := Record(context.Background(), small)
	if err != nil {
		f.Fatalf("Record: %v", err)
	}
	f.Add(rec.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, resealed(data[:len(data)-4]))
		}
		for _, in := range inputs {
			dec, err := DecodeRecording(in)
			if err != nil {
				continue
			}
			enc := dec.Encode()
			again, err := DecodeRecording(enc)
			if err != nil {
				t.Fatalf("re-encoded recording rejected: %v", err)
			}
			if !bytes.Equal(again.Encode(), enc) {
				t.Fatal("re-encoded recording decodes to a different recording")
			}
		}
	})
}

func TestReplayCatchesTamperedDigest(t *testing.T) {
	rec, _, err := Record(context.Background(), recText)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	rec.Digests[1] ^= 1
	_, err = rec.Replay(context.Background())
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("tampered digest: got %v, want ErrDigestMismatch", err)
	}
}

func TestReplayIsSeedIndependentOfHost(t *testing.T) {
	// The replay path must not regenerate from the seed: replaying after
	// deliberately changing the in-memory scenario seed still matches,
	// because the stream comes from the embedded trace. (The engine's own
	// hash seed comes from the embedded text, which is unchanged.)
	rec, _, err := Record(context.Background(), recText)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	src, err := rec.Source()
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	res, err := rec.Scenario.Run(context.Background(), RunOptions{Source: src})
	if err != nil {
		t.Fatalf("Run over trace: %v", err)
	}
	if err := rec.CheckDigests(res.Digests); err != nil {
		t.Fatalf("digests diverged: %v", err)
	}
}
