package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// duplex is an in-memory bidirectional stream for handshake tests.
type duplex struct {
	r *bytes.Buffer
	w *bytes.Buffer
}

func (d duplex) Read(p []byte) (int, error)  { return d.r.Read(p) }
func (d duplex) Write(p []byte) (int, error) { return d.w.Write(p) }

func TestHandshake(t *testing.T) {
	var cToS, sToC bytes.Buffer
	client := NewConn(duplex{r: &sToC, w: &cToS})
	server := NewConn(duplex{r: &cToS, w: &sToC})

	// The client's send must land before the server reads; drive the
	// halves manually in buffer order.
	if err := client.sendHandshake(); err != nil {
		t.Fatalf("client send: %v", err)
	}
	if err := server.ServerHandshake(); err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	v, err := client.expectHandshake()
	if err != nil {
		t.Fatalf("client expect: %v", err)
	}
	if v != Version {
		t.Fatalf("server replied %d, want %d", v, Version)
	}
}

// TestHandshakeNegotiation pins the one-version rule: a peer at Version is
// accepted, and either side refuses a peer at any other version with
// ErrProtocol. The server replies with Version either way, so a refused
// client can name the mismatch.
func TestHandshakeNegotiation(t *testing.T) {
	ours := Magic + string([]byte{Version})
	for _, tc := range []struct {
		peer byte
		want error
	}{
		{Version, nil},
		{0, ErrProtocol},
		{1, ErrProtocol},
		{2, ErrProtocol},
		{3, ErrProtocol},
		{4, ErrProtocol},
		{5, ErrProtocol},
		{6, ErrProtocol},
		{Version + 1, ErrProtocol},
	} {
		theirs := Magic + string([]byte{tc.peer})

		var reply bytes.Buffer
		server := NewConn(duplex{r: bytes.NewBufferString(theirs), w: &reply})
		if err := server.ServerHandshake(); !errors.Is(err, tc.want) {
			t.Fatalf("server, client at %d: got %v, want %v", tc.peer, err, tc.want)
		}
		if reply.String() != ours {
			t.Fatalf("server, client at %d: replied %q, want %q", tc.peer, reply.String(), ours)
		}

		var sent bytes.Buffer
		client := NewConn(duplex{r: bytes.NewBufferString(theirs), w: &sent})
		if err := client.ClientHandshake(); !errors.Is(err, tc.want) {
			t.Fatalf("client, server at %d: got %v, want %v", tc.peer, err, tc.want)
		}
		if sent.String() != ours {
			t.Fatalf("client, server at %d: sent %q, want %q", tc.peer, sent.String(), ours)
		}
	}
}

func TestHandshakeRejectsBadMagicAndTruncation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes string
	}{
		{"bad magic", "NOPE\x01"},
		{"truncated", Magic[:2]},
	} {
		c := NewConn(duplex{r: bytes.NewBufferString(tc.bytes), w: &bytes.Buffer{}})
		err := c.ServerHandshake()
		if err == nil {
			t.Fatalf("%s: handshake accepted", tc.name)
		}
		if tc.name == "truncated" {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: got %v, want ErrTruncated", tc.name, err)
			}
		} else if !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: got %v, want ErrProtocol", tc.name, err)
		}
	}
}

// frameStream encodes a representative sequence of frames and returns the
// raw bytes plus the expected (type, payload) pairs.
func frameStream(t *testing.T) ([]byte, []byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(duplex{r: &bytes.Buffer{}, w: &buf})
	types := []byte{MsgHello, MsgBatch, MsgProfile, MsgGoodbye, MsgError, MsgEpoch}
	payloads := [][]byte{
		AppendHello(nil, Hello{Config: testConfig(), Shards: 4}),
		AppendBatch(nil, []event.Tuple{{A: 1, B: 2}, {A: 100, B: 3}, {A: 7, B: 7}}),
		AppendProfile(nil, ProfileMsg{Index: 3, Shed: 17, Counts: map[event.Tuple]uint64{{A: 9, B: 1}: 4}}),
		nil,
		AppendError(nil, ErrorMsg{Code: CodeInternal, Msg: "boom"}),
		AppendEpoch(nil, EpochMsg{Source: "agg-root", Epoch: 9, Partial: true, Children: 3,
			Missing: []string{"leaf-2"}, Counts: map[event.Tuple]uint64{{A: 4, B: 4}: 12}}),
	}
	for i, typ := range types {
		if err := c.WriteFrame(typ, payloads[i]); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	return buf.Bytes(), types, payloads
}

func testConfig() core.Config {
	return core.Config{
		IntervalLength:     10_000,
		ThresholdPercent:   0.5,
		TotalEntries:       2048,
		NumTables:          4,
		CounterWidth:       24,
		ConservativeUpdate: true,
		Retain:             true,
		Seed:               42,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	raw, types, payloads := frameStream(t)
	c := NewConn(duplex{r: bytes.NewBuffer(raw), w: &bytes.Buffer{}})
	for i := range types {
		typ, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if typ != types[i] {
			t.Fatalf("frame %d: type %d, want %d", i, typ, types[i])
		}
		want := payloads[i]
		if want == nil {
			want = []byte{}
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := c.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestFrameIOAllocatesNothing: writing a frame allocates nothing, and
// neither does reading one once the reused payload buffer has grown.
func TestFrameIOAllocatesNothing(t *testing.T) {
	type rw struct {
		io.Reader
		io.Writer
	}
	const runs = 100
	payload := AppendBatch(nil, []event.Tuple{{A: 1, B: 2}, {A: 3, B: 40}})
	w := NewConn(rw{Writer: io.Discard})
	if n := testing.AllocsPerRun(runs, func() {
		if err := w.WriteFrame(MsgBatch, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame: %v allocations per frame, want 0", n)
	}

	var stream bytes.Buffer
	sw := NewConn(rw{Writer: &stream})
	for i := 0; i < runs+2; i++ {
		if err := sw.WriteFrame(MsgBatch, payload); err != nil {
			t.Fatal(err)
		}
	}
	r := NewConn(rw{Reader: bytes.NewReader(stream.Bytes())})
	if _, _, err := r.ReadFrame(); err != nil { // grows the payload buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadFrame: %v allocations per frame, want 0", n)
	}
}

// TestFrameTruncation cuts the stream at every byte position: the reader
// must deliver some prefix of the original frames and then fail with
// ErrTruncated — or io.EOF exactly when the cut lands on a frame boundary.
func TestFrameTruncation(t *testing.T) {
	raw, types, _ := frameStream(t)

	// Record the clean frame boundaries.
	boundaries := map[int]bool{0: true}
	{
		r := bytes.NewBuffer(raw)
		c := NewConn(duplex{r: r, w: &bytes.Buffer{}})
		for range types {
			if _, _, err := c.ReadFrame(); err != nil {
				t.Fatal(err)
			}
			boundaries[len(raw)-r.Len()-c.r.Buffered()] = true
		}
	}

	for cut := 0; cut < len(raw); cut++ {
		c := NewConn(duplex{r: bytes.NewBuffer(raw[:cut]), w: &bytes.Buffer{}})
		frames := 0
		var err error
		for {
			_, _, err = c.ReadFrame()
			if err != nil {
				break
			}
			frames++
			if frames > len(types) {
				t.Fatalf("cut %d: more frames than were written", cut)
			}
		}
		if err == io.EOF {
			if !boundaries[cut] {
				t.Fatalf("cut %d: clean EOF off a frame boundary after %d frames", cut, frames)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: %v, want ErrTruncated or clean io.EOF", cut, err)
		}
	}
}

// TestFrameCorruption flips one byte at every position: the reader must
// never deliver the original frame sequence unchanged, and any failure must
// be a classified sentinel.
func TestFrameCorruption(t *testing.T) {
	raw, types, payloads := frameStream(t)
	for pos := 0; pos < len(raw); pos++ {
		mut := bytes.Clone(raw)
		mut[pos] ^= 0xff
		c := NewConn(duplex{r: bytes.NewBuffer(mut), w: &bytes.Buffer{}})
		intact := true
		for i := 0; ; i++ {
			typ, payload, err := c.ReadFrame()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("pos %d: unclassified error %v", pos, err)
				}
				intact = intact && err == io.EOF && i == len(types)
				break
			}
			want := payloads[i]
			if want == nil {
				want = []byte{}
			}
			intact = intact && i < len(types) && typ == types[i] && bytes.Equal(payload, want)
		}
		if intact {
			t.Fatalf("pos %d: corrupted stream read back identical", pos)
		}
	}
}

func TestReadFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(MsgBatch)
	// A length prefix beyond MaxPayload must be rejected before allocating.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	c := NewConn(duplex{r: &buf, w: &bytes.Buffer{}})
	if _, _, err := c.ReadFrame(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	cases := []Hello{
		{Config: testConfig(), Shards: 4},
		{Config: core.Config{
			IntervalLength:   1,
			ThresholdPercent: 100,
			TotalEntries:     1,
			NumTables:        1,
			CounterWidth:     1,
			ResetOnPromote:   true,
			NoShield:         true,
			WeakHash:         true,
			AccumCapacity:    123,
			Seed:             math.MaxUint64,
		}},
		{Config: core.Config{ThresholdPercent: math.Inf(1)}, Shards: 1 << 20},
		{Config: testConfig(), Shards: 2, Marked: true},
	}
	for i, want := range cases {
		got, err := DecodeHello(AppendHello(nil, want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("case %d: %+v != %+v", i, got, want)
		}
	}
}

// TestJournaledEncodingsPinned pins the Hello bytes to the encoding
// protocol versions 2 and 3 produced, and the HelloAck and ResumeAck bytes
// to version 7's. Session journals store Hello bytes in their meta
// records, so journals written before the protocol moved to one version
// must still decode to the same configuration.
func TestJournaledEncodingsPinned(t *testing.T) {
	cfg := core.BestMultiHash(core.ShortIntervalConfig())
	cfg.Seed = 0x1234_5678_9abc_def0
	for _, tc := range []struct {
		marked bool
		want   string
	}{
		{false, "904e000000000000f03f801004180500f0debc9a785634120300"},
		{true, "904e000000000000f03f801004180500f0debc9a785634120301"},
	} {
		h := Hello{Config: cfg, Shards: 3, Marked: tc.marked}
		if got := hex.EncodeToString(AppendHello(nil, h)); got != tc.want {
			t.Fatalf("hello (marked %v) = %s, want %s", tc.marked, got, tc.want)
		}
	}
	ha := HelloAck{SessionID: 300, Shed: true, Resume: true, QueueDepth: 16, Shards: 4}
	if got, want := hex.EncodeToString(AppendHelloAck(nil, ha)), "ac02031004"; got != want {
		t.Fatalf("hello-ack = %s, want %s", got, want)
	}
	a := ResumeAck{Intervals: 5, StreamPos: 50_600, Shed: 3}
	if got, want := hex.EncodeToString(AppendResumeAck(nil, a)), "05a88b0303"; got != want {
		t.Fatalf("resume-ack = %s, want %s", got, want)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, a := range []HelloAck{
		{},
		{SessionID: 99, Shed: true, QueueDepth: 16, Shards: 1},
		{SessionID: 7, Resume: true, QueueDepth: 8, Shards: 4},
		{SessionID: 8, Shed: true, Resume: true, QueueDepth: 4, Shards: 16},
	} {
		got, err := DecodeHelloAck(AppendHelloAck(nil, a))
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("%+v != %+v", got, a)
		}
	}
}

func TestResumeRoundTrip(t *testing.T) {
	for _, want := range []Resume{{}, {SessionID: 42, Intervals: 7, Floor: 71_234}} {
		got, err := DecodeResume(AppendResume(nil, want))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%+v != %+v", got, want)
		}
	}
}

func TestResumeAckRoundTrip(t *testing.T) {
	for _, want := range []ResumeAck{
		{},
		{Intervals: 3, StreamPos: 30_999, Shed: 17},
	} {
		got, err := DecodeResumeAck(AppendResumeAck(nil, want))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%+v != %+v", got, want)
		}
	}
}

func TestNoticeRoundTrip(t *testing.T) {
	for _, n := range []Notice{
		{Kind: NoticePark, Rung: 4, Index: 9, Observed: 90_000, Shed: 123,
			IntervalLength: 10_000, TotalEntries: 2048, NumTables: 4, Shards: 1, Reason: "queue 16/16"},
		{Kind: NoticeResize, IntervalLength: 5_000, TotalEntries: 2048, NumTables: 4, Shards: 2},
		{},
	} {
		got, err := DecodeNotice(AppendNotice(nil, n))
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("%+v != %+v", got, n)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	batches := [][]event.Tuple{
		nil,
		{{A: 0, B: 0}},
		{{A: math.MaxUint64, B: 1}, {A: 0, B: math.MaxUint64}},
	}
	long := make([]event.Tuple, 1000)
	for i := range long {
		long[i] = event.Tuple{A: rng.Uint64() >> (i % 48), B: rng.Uint64() >> (i % 48)}
	}
	batches = append(batches, long)
	for i, b := range batches {
		got, err := DecodeBatch(AppendBatch(nil, b), nil)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(got) != len(b) {
			t.Fatalf("batch %d: %d tuples, want %d", i, len(got), len(b))
		}
		for j := range b {
			if got[j] != b[j] {
				t.Fatalf("batch %d tuple %d: %v != %v", i, j, got[j], b[j])
			}
		}
	}
}

// TestBatchEncodingPinned pins the batch bytes. Session journals store
// batch payloads in their batch records, so a change to these bytes must
// come with a journal.Version bump.
func TestBatchEncodingPinned(t *testing.T) {
	for _, tc := range []struct {
		batch []event.Tuple
		want  string
	}{
		// Base (5, 1), then widths 8 (A: the last delta is 2^63-3) and 1
		// (B); A's first delta is negative, so its zigzag is odd.
		{[]event.Tuple{{A: 5, B: 1}, {A: 3, B: 2}, {A: 1 << 63, B: 3}},
			"03" + "81" + "05" + "01" + "0300000000000000" + "02" + "faffffffffffffff" + "02"},
		// A large base does not widen the records: 1 byte for A's delta of
		// +4, 1 for B's of −1.
		{[]event.Tuple{{A: 0x400000, B: 2}, {A: 0x400004, B: 1}}, "02" + "11" + "80808002" + "02" + "08" + "01"},
		// A one-tuple frame is its base alone.
		{[]event.Tuple{{A: 7, B: 0x1234}}, "01" + "11" + "07" + "b424"},
		{nil, "00" + "11"},
	} {
		if got := hex.EncodeToString(AppendBatch(nil, tc.batch)); got != tc.want {
			t.Fatalf("batch %v = %s, want %s", tc.batch, got, tc.want)
		}
	}
}

// TestBatchWidths round-trips frames whose deltas need exactly wA and wB
// bytes, for every width pair and for frames short enough that every record
// is read from the zero-padded tail copy as well as longer ones. Each frame
// starts from a random base, which must not widen its records.
func TestBatchWidths(t *testing.T) {
	rng := xrand.New(11)
	// delta returns a signed delta whose zigzag needs exactly w bytes.
	delta := func(w int, top bool) int64 {
		z := rng.Uint64() & widthMask(w)
		if top {
			z |= 1 << (8*w - 1)
		}
		return unzigzag(z)
	}
	for wA := 1; wA <= 8; wA++ {
		for wB := 1; wB <= 8; wB++ {
			for _, n := range []int{1, 2, 3, 17} {
				batch := make([]event.Tuple, n+1)
				prev := event.Tuple{A: rng.Uint64(), B: rng.Uint64()}
				batch[0] = prev
				for i := 1; i <= n; i++ {
					// The last record carries the widest deltas, so the tail
					// copy is what must read them back.
					prev.A += uint64(delta(wA, i == n))
					prev.B += uint64(delta(wB, i == n))
					batch[i] = prev
				}
				p := AppendBatch(nil, batch)
				base := len(binary.AppendUvarint(nil, batch[0].A)) + len(binary.AppendUvarint(nil, batch[0].B))
				if want := 2 + base + n*(wA+wB); len(p) != want || p[1] != byte(wA<<4|wB) {
					t.Fatalf("widths %d+%d, %d records: %d bytes with widths byte %#x, want %d bytes and %#x",
						wA, wB, n, len(p), p[1], want, wA<<4|wB)
				}
				got, err := DecodeBatch(p, nil)
				if err != nil {
					t.Fatalf("widths %d+%d, %d records: %v", wA, wB, n, err)
				}
				if !reflect.DeepEqual(got, batch) {
					t.Fatalf("widths %d+%d, %d records: %v != %v", wA, wB, n, got, batch)
				}
			}
		}
	}
}

// TestDecodeBatchRejectsMalformedBodies feeds DecodeBatch widths outside
// 1..8, broken bases and bodies that do not hold exactly the declared
// records. Each must fail with ErrCorrupt before anything is allocated for
// the declared count.
func TestDecodeBatchRejectsMalformedBodies(t *testing.T) {
	const count = 1 << 16 // 1 MiB of tuples if the decoder allocated them
	// payload is count, the widths byte, a base of (0, 0) and body bytes
	// for the records.
	payload := func(count uint64, widths byte, body int) []byte {
		return append(append(binary.AppendUvarint(nil, count), widths, 0, 0), make([]byte, body)...)
	}
	const records = count - 1
	for _, tc := range []struct {
		name string
		p    []byte
	}{
		{"width 0 on A", payload(count, 0x01, records)},
		{"width 0 on B", payload(count, 0x10, records)},
		{"width 9 on A", payload(count, 0x91, records*10)},
		{"width 9 on B", payload(count, 0x19, records*10)},
		{"body one byte short", payload(count, 0x11, records*2-1)},
		{"body one byte long", payload(count, 0x11, records*2+1)},
		// 2^62 records of 4 bytes are 2^64 bytes: 0 once records × rec wraps.
		{"records × rec overflows", payload(1<<62+1, 0x22, 0)},
		{"no widths byte", binary.AppendUvarint(nil, count)},
		{"no base", append(binary.AppendUvarint(nil, count), 0x11)},
		{"base without B", append(binary.AppendUvarint(nil, count), 0x11, 0x05)},
		{"base A overlong", append(append(binary.AppendUvarint(nil, count), 0x11), bytes.Repeat([]byte{0xff}, 11)...)},
		{"bytes after an empty batch", []byte{0x00, 0x11, 0x00}},
	} {
		var err error
		if b := allocatedBytes(func() { _, err = DecodeBatch(tc.p, nil) }); b > 4<<10 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, b)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecodeBatchReusesBuffer(t *testing.T) {
	buf := make([]event.Tuple, 0, 64)
	p := AppendBatch(nil, []event.Tuple{{A: 5, B: 6}})
	got, err := DecodeBatch(p, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[:1][0] != &buf[:1][0] {
		t.Fatal("buffer with capacity was not reused")
	}
}

func TestDecodeBatchRejectsOverlongCount(t *testing.T) {
	// A count the payload cannot possibly hold must fail fast, not allocate.
	p := []byte{0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeBatch(p, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	rng := xrand.New(11)
	big := make(map[event.Tuple]uint64, 500)
	for i := 0; i < 500; i++ {
		big[event.Tuple{A: rng.Uint64() % 1000, B: rng.Uint64() % 10}] = rng.Uint64() % 100_000
	}
	cases := []ProfileMsg{
		{Counts: map[event.Tuple]uint64{}},
		{Index: 7, Shed: 123, Final: true, Counts: map[event.Tuple]uint64{{A: 1, B: 2}: 3}},
		{Index: 1 << 40, Counts: big},
	}
	for i, m := range cases {
		got, err := DecodeProfile(AppendProfile(nil, m))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Index != m.Index || got.Shed != m.Shed || got.Final != m.Final {
			t.Fatalf("case %d: header %+v != %+v", i, got, m)
		}
		if !reflect.DeepEqual(got.Counts, m.Counts) {
			t.Fatalf("case %d: counts mismatch", i)
		}
	}
}

func TestAppendProfileIsDeterministic(t *testing.T) {
	m := ProfileMsg{Counts: map[event.Tuple]uint64{}}
	rng := xrand.New(3)
	for i := 0; i < 200; i++ {
		m.Counts[event.Tuple{A: rng.Uint64(), B: rng.Uint64()}] = rng.Uint64()
	}
	first := AppendProfile(nil, m)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(AppendProfile(nil, m), first) {
			t.Fatal("same profile encoded differently across calls")
		}
	}
}

func TestDecodeProfileRejectsDuplicateTuple(t *testing.T) {
	p := []byte{0}                       // flags
	p = append(p, 0, 0, 2)               // index, shed, 2 entries
	p = append(p, 2, 2, 1 /* {1,1}:_ */) // zigzag(1)=2
	p = append(p, 0, 0, 1 /* {1,1} dup */)
	if _, err := DecodeProfile(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	for _, s := range []Subscribe{{}, {Start: 1 << 33}} {
		got, err := DecodeSubscribe(AppendSubscribe(nil, s))
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("%+v != %+v", got, s)
		}
	}
}

func TestSubscribeAckRoundTrip(t *testing.T) {
	for _, a := range []SubscribeAck{
		{},
		{Source: "leaf-1", EpochLength: 10_000, First: 12, Window: 64},
	} {
		got, err := DecodeSubscribeAck(AppendSubscribeAck(nil, a))
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("%+v != %+v", got, a)
		}
	}
	// Oversized source names are truncated to the wire bound, not rejected.
	long := SubscribeAck{Source: strings.Repeat("n", 2*maxName)}
	got, err := DecodeSubscribeAck(AppendSubscribeAck(nil, long))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Source) != maxName {
		t.Fatalf("source truncated to %d, want %d", len(got.Source), maxName)
	}
}

func TestEpochRoundTrip(t *testing.T) {
	rng := xrand.New(13)
	big := make(map[event.Tuple]uint64, 300)
	for i := 0; i < 300; i++ {
		big[event.Tuple{A: rng.Uint64() % 500, B: rng.Uint64() % 8}] = rng.Uint64() % 1_000_000
	}
	cases := []EpochMsg{
		{Source: "d1", Counts: map[event.Tuple]uint64{}},
		{Source: "agg-west", Epoch: 41, Children: 12, Counts: big},
		{Source: "agg-root", Epoch: 7, Partial: true, Children: 2,
			Missing: []string{"127.0.0.1:9001", "leaf-3/s12"},
			Counts:  map[event.Tuple]uint64{{A: 1, B: 1}: 2}},
	}
	for i, m := range cases {
		got, err := DecodeEpoch(AppendEpoch(nil, m))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Source != m.Source || got.Epoch != m.Epoch || got.Partial != m.Partial || got.Children != m.Children {
			t.Fatalf("case %d: header %+v != %+v", i, got, m)
		}
		if !reflect.DeepEqual(got.Missing, m.Missing) {
			t.Fatalf("case %d: missing %v != %v", i, got.Missing, m.Missing)
		}
		if !reflect.DeepEqual(got.Counts, m.Counts) {
			t.Fatalf("case %d: counts mismatch", i)
		}
	}
}

func TestAppendEpochIsDeterministic(t *testing.T) {
	m := EpochMsg{Source: "root", Epoch: 3, Counts: map[event.Tuple]uint64{}}
	rng := xrand.New(5)
	for i := 0; i < 200; i++ {
		m.Counts[event.Tuple{A: rng.Uint64(), B: rng.Uint64()}] = rng.Uint64()
	}
	first := AppendEpoch(nil, m)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(AppendEpoch(nil, m), first) {
			t.Fatal("same epoch encoded differently across calls")
		}
	}
}

func TestMarkRoundTrip(t *testing.T) {
	for _, m := range []Mark{{}, {Index: 1 << 40}} {
		got, err := DecodeMark(AppendMark(nil, m))
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("%+v != %+v", got, m)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	for _, e := range []ErrorMsg{{}, {Code: CodeOverload, Msg: "full"}} {
		got, err := DecodeError(AppendError(nil, e))
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Fatalf("%+v != %+v", got, e)
		}
	}
	// Oversized messages are truncated, not rejected.
	long := ErrorMsg{Code: CodeInternal, Msg: strings.Repeat("x", 2*maxErrorMsg)}
	got, err := DecodeError(AppendError(nil, long))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Msg) != maxErrorMsg {
		t.Fatalf("message truncated to %d, want %d", len(got.Msg), maxErrorMsg)
	}
}

// TestDecodersRejectPrefixesAndTrailingGarbage runs every message decoder
// over every strict prefix of a valid payload (must fail: the payload ends
// early) and over the payload plus a trailing byte (must fail: trailing
// garbage), mirroring the trace reader's truncation discipline.
func TestDecodersRejectPrefixesAndTrailingGarbage(t *testing.T) {
	msgs := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"hello", AppendHello(nil, Hello{Config: testConfig(), Shards: 3, Marked: true}),
			func(p []byte) error { _, err := DecodeHello(p); return err }},
		{"hello-ack", AppendHelloAck(nil, HelloAck{SessionID: 5, Shed: true, QueueDepth: 8, Shards: 2}),
			func(p []byte) error { _, err := DecodeHelloAck(p); return err }},
		{"batch", AppendBatch(nil, []event.Tuple{{A: 300, B: 2}, {A: 1, B: 900}}),
			func(p []byte) error { _, err := DecodeBatch(p, nil); return err }},
		{"profile", AppendProfile(nil, ProfileMsg{Index: 2, Counts: map[event.Tuple]uint64{{A: 300, B: 1}: 400, {A: 301, B: 2}: 1}}),
			func(p []byte) error { _, err := DecodeProfile(p); return err }},
		{"error", AppendError(nil, ErrorMsg{Code: CodeConfig, Msg: "bad config"}),
			func(p []byte) error { _, err := DecodeError(p); return err }},
		{"resume", AppendResume(nil, Resume{SessionID: 300, Intervals: 4, Floor: 40_150}),
			func(p []byte) error { _, err := DecodeResume(p); return err }},
		{"resume-ack", AppendResumeAck(nil, ResumeAck{Intervals: 5, StreamPos: 50_600, Shed: 3}),
			func(p []byte) error { _, err := DecodeResumeAck(p); return err }},
		{"notice", AppendNotice(nil, Notice{Kind: NoticeDegrade, Rung: 3, Index: 7, Observed: 70_000, Shed: 2,
			IntervalLength: 40_000, TotalEntries: 512, NumTables: 4, Shards: 1, Reason: "shed 0.31 >= 0.25"}),
			func(p []byte) error { _, err := DecodeNotice(p); return err }},
		{"subscribe", AppendSubscribe(nil, Subscribe{Start: 17}),
			func(p []byte) error { _, err := DecodeSubscribe(p); return err }},
		{"subscribe-ack", AppendSubscribeAck(nil, SubscribeAck{Source: "leaf-1", EpochLength: 10_000, First: 3, Window: 64}),
			func(p []byte) error { _, err := DecodeSubscribeAck(p); return err }},
		{"epoch", AppendEpoch(nil, EpochMsg{Source: "agg", Epoch: 5, Partial: true, Children: 4,
			Missing: []string{"a", "b"}, Counts: map[event.Tuple]uint64{{A: 300, B: 1}: 400, {A: 301, B: 2}: 1}}),
			func(p []byte) error { _, err := DecodeEpoch(p); return err }},
		{"mark", AppendMark(nil, Mark{Index: 12}),
			func(p []byte) error { _, err := DecodeMark(p); return err }},
	}
	for _, m := range msgs {
		if err := m.decode(m.payload); err != nil {
			t.Fatalf("%s: valid payload rejected: %v", m.name, err)
		}
		for cut := 0; cut < len(m.payload); cut++ {
			if err := m.decode(m.payload[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut at %d/%d: got %v, want ErrCorrupt", m.name, cut, len(m.payload), err)
			}
		}
		if err := m.decode(append(bytes.Clone(m.payload), 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s with trailing byte: got %v, want ErrCorrupt", m.name, err)
		}
	}
}
