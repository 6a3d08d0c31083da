package hwprof_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"hwprof"
)

func TestQuickstartFlow(t *testing.T) {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	p, err := hwprof.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := hwprof.NewWorkload("li", hwprof.KindValue, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < cfg.IntervalLength; i++ {
		tp, ok := w.Next()
		if !ok {
			t.Fatal("workload ended")
		}
		p.Observe(tp)
	}
	profile := p.EndInterval()
	cands := 0
	for _, n := range profile {
		if n >= cfg.ThresholdCount() {
			cands++
		}
	}
	if cands == 0 {
		t.Fatal("no candidates caught on li")
	}
	if cands > cfg.EffectiveAccumCapacity() {
		t.Fatalf("%d candidates exceed accumulator bound %d", cands, cfg.EffectiveAccumCapacity())
	}
}

func TestRunAndEvalRoundTrip(t *testing.T) {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	p, err := hwprof.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := hwprof.NewWorkload("m88ksim", hwprof.KindValue, 2)
	calls := 0
	n, err := hwprof.Profile(context.Background(), hwprof.Limit(w, 3*cfg.IntervalLength),
		hwprof.WithEngine(p), hwprof.WithIntervalLength(cfg.IntervalLength),
		hwprof.OnInterval(func(i int, perfect, hardware map[hwprof.Tuple]uint64) {
			calls++
			iv := hwprof.EvalInterval(perfect, hardware, cfg.ThresholdCount())
			if iv.Total < 0 {
				t.Fatalf("negative error %v", iv.Total)
			}
		}))
	if err != nil || n != 3 || calls != 3 {
		t.Fatalf("Profile = %d, %v; calls = %d", n, err, calls)
	}
}

func TestWorkloadsAndPrograms(t *testing.T) {
	if len(hwprof.Workloads()) != 8 {
		t.Fatalf("Workloads() = %v", hwprof.Workloads())
	}
	if len(hwprof.Programs()) < 6 {
		t.Fatalf("Programs() = %v", hwprof.Programs())
	}
	if _, err := hwprof.NewWorkload("nope", hwprof.KindValue, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := hwprof.NewProgramSource("nope", hwprof.KindValue, false); err == nil {
		t.Fatal("unknown program accepted")
	}
}

func TestProgramSourceDelivers(t *testing.T) {
	src, err := hwprof.NewProgramSource("fib", hwprof.KindEdge, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n < 100 {
		t.Fatalf("fib produced only %d edge events", n)
	}
}

func TestTraceRoundTripViaFacade(t *testing.T) {
	w, _ := hwprof.NewWorkload("li", hwprof.KindValue, 3)
	var buf bytes.Buffer
	written, err := hwprof.WriteTrace(&buf, hwprof.KindValue, w, 5000)
	if err != nil || written != 5000 {
		t.Fatalf("WriteTrace = %d, %v", written, err)
	}
	r, err := hwprof.OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != hwprof.KindValue {
		t.Fatalf("trace kind = %v", r.Kind())
	}
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if n != 5000 || r.Err() != nil {
		t.Fatalf("read %d tuples, err %v", n, r.Err())
	}
}

func TestWriteTraceZeroMeansNoLimit(t *testing.T) {
	// max == 0 writes until the source is exhausted — here, all 1234
	// tuples of a bounded slice.
	w, _ := hwprof.NewWorkload("li", hwprof.KindValue, 3)
	tuples := make([]hwprof.Tuple, 1234)
	for i := range tuples {
		tuples[i], _ = w.Next()
	}
	var buf bytes.Buffer
	written, err := hwprof.WriteTrace(&buf, hwprof.KindValue, hwprof.NewSliceSource(tuples), 0)
	if err != nil || written != 1234 {
		t.Fatalf("WriteTrace(max=0) = %d, %v; want all 1234", written, err)
	}
	r, err := hwprof.OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if n != 1234 {
		t.Fatalf("read back %d tuples", n)
	}
}

// TestRunWithMatchesRun: the batch size of the source→engine loop does not
// move interval boundaries — a run at the default batch size and one at 77
// tuples per batch produce identical interval profiles.
func TestRunWithMatchesRun(t *testing.T) {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	w, _ := hwprof.NewWorkload("gcc", hwprof.KindValue, 5)
	tuples := make([]hwprof.Tuple, 3*cfg.IntervalLength)
	for i := range tuples {
		tuples[i], _ = w.Next()
	}

	collect := func(opts ...hwprof.Option) []map[hwprof.Tuple]uint64 {
		t.Helper()
		p, err := hwprof.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []map[hwprof.Tuple]uint64
		opts = append(opts, hwprof.WithEngine(p), hwprof.WithIntervalLength(cfg.IntervalLength),
			hwprof.OnInterval(func(_ int, _, h map[hwprof.Tuple]uint64) { out = append(out, h) }))
		n, err := hwprof.Profile(context.Background(), hwprof.NewSliceSource(tuples), opts...)
		if err != nil || n != 3 {
			t.Fatalf("run = %d, %v", n, err)
		}
		return out
	}

	if !reflect.DeepEqual(collect(), collect(hwprof.WithBatchSize(77))) {
		t.Fatal("a 77-tuple batch size changed the interval profiles")
	}
}

// TestShardedFacade drives the sharded engine end-to-end through the
// facade: NewSharded run through Profile, and Profile building the engine
// itself, must agree.
func TestShardedFacade(t *testing.T) {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	cfg.Seed = 6
	w, _ := hwprof.NewWorkload("m88ksim", hwprof.KindValue, 4)
	tuples := make([]hwprof.Tuple, 2*cfg.IntervalLength)
	for i := range tuples {
		tuples[i], _ = w.Next()
	}
	sp, err := hwprof.NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var manual []map[hwprof.Tuple]uint64
	n, err := hwprof.Profile(context.Background(), hwprof.NewSliceSource(tuples),
		hwprof.WithEngine(sp), hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, h map[hwprof.Tuple]uint64) { manual = append(manual, h) }))
	sp.Close()
	if err != nil || n != 2 {
		t.Fatalf("Profile over a NewSharded engine = %d, %v", n, err)
	}

	var oneCall []map[hwprof.Tuple]uint64
	n, err = hwprof.Profile(context.Background(), hwprof.NewSliceSource(tuples),
		hwprof.WithConfig(cfg), hwprof.WithShards(4), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(_ int, _, h map[hwprof.Tuple]uint64) { oneCall = append(oneCall, h) }))
	if err != nil || n != 2 {
		t.Fatalf("Profile with WithShards = %d, %v", n, err)
	}
	if !reflect.DeepEqual(manual, oneCall) {
		t.Fatal("Profile's own sharded engine diverges from NewSharded")
	}
	for i, h := range oneCall {
		if len(h) == 0 {
			t.Fatalf("interval %d: empty sharded profile on a hot workload", i)
		}
	}
}

func TestStorageBytesEnvelope(t *testing.T) {
	// The paper's abstract: "between 7 to 16 Kilobytes".
	short, err := hwprof.StorageBytes(hwprof.BestMultiHash(hwprof.ShortIntervalConfig()))
	if err != nil {
		t.Fatal(err)
	}
	long, err := hwprof.StorageBytes(hwprof.BestMultiHash(hwprof.LongIntervalConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if short < 7000 || long > 17*1024 {
		t.Fatalf("storage envelope: short %d, long %d", short, long)
	}
	if _, err := hwprof.StorageBytes(hwprof.Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPresetConfigsValid(t *testing.T) {
	for _, cfg := range []hwprof.Config{
		hwprof.ShortIntervalConfig(),
		hwprof.LongIntervalConfig(),
		hwprof.BestSingleHash(hwprof.ShortIntervalConfig()),
		hwprof.BestMultiHash(hwprof.LongIntervalConfig()),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %v invalid: %v", cfg, err)
		}
	}
	bsh := hwprof.BestSingleHash(hwprof.ShortIntervalConfig())
	if bsh.NumTables != 1 || !bsh.ResetOnPromote || !bsh.Retain {
		t.Fatalf("BestSingleHash = %+v", bsh)
	}
	mh := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	if mh.NumTables != 4 || !mh.ConservativeUpdate || mh.ResetOnPromote || !mh.Retain {
		t.Fatalf("BestMultiHash = %+v", mh)
	}
}

func TestAdaptiveFacade(t *testing.T) {
	base := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	base.Seed = 4
	a, err := hwprof.NewAdaptive(hwprof.AdaptiveConfig{
		Base:        base,
		MinLength:   1_000,
		MaxLength:   100_000,
		ShrinkAbove: 60,
		GrowBelow:   10,
		Settle:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := hwprof.NewWorkload("li", hwprof.KindValue, 1)
	boundaries := 0
	for i := 0; i < 50_000; i++ {
		tp, _ := w.Next()
		b, err := a.Observe(tp)
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			boundaries++
			if len(b.Profile) == 0 {
				t.Fatal("boundary with empty profile on a hot workload")
			}
		}
	}
	if boundaries == 0 {
		t.Fatal("no boundaries observed")
	}
}

func TestCombineFacade(t *testing.T) {
	if hwprof.Combine(1, 2) != (hwprof.Tuple{A: 1, B: 2}) {
		t.Fatal("two-variable Combine not literal")
	}
	if hwprof.Combine(1, 2, 3) == hwprof.Combine(1, 3, 2) {
		t.Fatal("multi-variable Combine insensitive to order")
	}
}

func TestInterleaveFacade(t *testing.T) {
	a, _ := hwprof.NewWorkload("li", hwprof.KindValue, 1)
	b, _ := hwprof.NewWorkload("m88ksim", hwprof.KindValue, 2)
	merged, err := hwprof.Interleave(100, a, b)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for n < 1000 {
		if _, ok := merged.Next(); !ok {
			t.Fatal("merged stream ended")
		}
		n++
	}
	if _, err := hwprof.Interleave(0, a); err == nil {
		t.Fatal("zero quantum accepted")
	}
}

// countingNexter is a minimal error-free producer: Next only, no Err.
type countingNexter struct{ n uint64 }

func (c *countingNexter) Next() (hwprof.Tuple, bool) {
	c.n++
	return hwprof.Tuple{A: c.n % 64, B: 1}, true
}

// TestFromNexterFacade: an Err-less producer lifts into a Source with a
// permanently nil Err; a real Source passes through unchanged.
func TestFromNexterFacade(t *testing.T) {
	src := hwprof.FromNexter(&countingNexter{})
	if _, ok := src.Next(); !ok || src.Err() != nil {
		t.Fatalf("adapted nexter: ok=%v err=%v", ok, src.Err())
	}
	w, _ := hwprof.NewWorkload("li", hwprof.KindValue, 1)
	if hwprof.FromNexter(w) != w {
		t.Fatal("a Source was re-wrapped instead of passed through")
	}
}

// TestRunParallelContextFacade: cancellation stops a Profile run on a
// sharded engine it built with ctx.Err(), and the engine is torn down for
// the caller.
func TestRunParallelContextFacade(t *testing.T) {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	ctx, cancel := context.WithCancel(context.Background())
	n, err := hwprof.Profile(ctx, hwprof.FromNexter(&countingNexter{}),
		hwprof.WithConfig(cfg), hwprof.WithShards(2), hwprof.WithoutOracle(),
		hwprof.OnInterval(func(i int, _, _ map[hwprof.Tuple]uint64) {
			if i == 1 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n < 2 {
		t.Fatalf("intervals = %d, want at least the 2 before cancellation", n)
	}
}

// TestDrainViaFacade: the exported engine salvages a partial interval and
// then reports ErrClosed on further use.
func TestDrainViaFacade(t *testing.T) {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	sp, err := hwprof.NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := hwprof.NewWorkload("gcc", hwprof.KindValue, 3)
	for i := uint64(0); i < cfg.IntervalLength/2; i++ {
		tp, _ := w.Next()
		sp.Observe(tp)
	}
	profile, err := sp.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) == 0 {
		t.Fatal("Drain lost the half interval")
	}
	sp.Observe(hwprof.Tuple{A: 1})
	if !errors.Is(sp.Err(), hwprof.ErrClosed) {
		t.Fatalf("use after Drain: Err = %v, want ErrClosed", sp.Err())
	}
	if _, err := sp.Drain(); !errors.Is(err, hwprof.ErrClosed) {
		t.Fatalf("second Drain: err = %v, want ErrClosed", err)
	}
}

// TestRunWithReportsTraceFaults: the facade's headline robustness promise —
// profiling a damaged trace file ends with a matchable error, not a
// silently shortened run.
func TestRunWithReportsTraceFaults(t *testing.T) {
	cfg := hwprof.BestMultiHash(hwprof.ShortIntervalConfig())
	var buf bytes.Buffer
	w, _ := hwprof.NewWorkload("li", hwprof.KindValue, 4)
	if _, err := hwprof.WriteTrace(&buf, hwprof.KindValue, hwprof.Limit(w, 2*cfg.IntervalLength), 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	run := func(data []byte) error {
		r, err := hwprof.OpenTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		p, err := hwprof.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = hwprof.Profile(context.Background(), r,
			hwprof.WithEngine(p), hwprof.WithIntervalLength(cfg.IntervalLength), hwprof.WithoutOracle())
		return err
	}

	if err := run(data); err != nil {
		t.Fatalf("intact trace: %v", err)
	}
	if err := run(data[:len(data)*3/4]); !errors.Is(err, hwprof.ErrTraceTruncated) {
		t.Fatalf("truncated trace: err = %v, want ErrTraceTruncated", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if err := run(flipped); !errors.Is(err, hwprof.ErrTraceCorrupt) {
		t.Fatalf("corrupt trace: err = %v, want ErrTraceCorrupt", err)
	}
}
