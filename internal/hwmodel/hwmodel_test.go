package hwmodel

import (
	"strings"
	"testing"

	"hwprof/internal/core"
)

func TestHashBytesPaperNumber(t *testing.T) {
	// §7: 2K entries of 3-byte counters = 6 KB.
	got, err := HashBytes(2048, 24)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6144 {
		t.Fatalf("HashBytes(2048, 24) = %d, want 6144", got)
	}
	// Each counter rounds up to whole bytes: 9 bits take 2.
	if got, err := HashBytes(10, 9); err != nil || got != 20 {
		t.Fatalf("HashBytes(10, 9) = %d, %v, want 20", got, err)
	}
}

func TestHashBytesValidation(t *testing.T) {
	if _, err := HashBytes(0, 24); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := HashBytes(100, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := HashBytes(100, 65); err == nil {
		t.Error("width 65 accepted")
	}
}

func TestAccumBytesPaperNumbers(t *testing.T) {
	// §7: 1 KB at 1% (100 entries), 10 KB at 0.1% (1000 entries).
	got, err := AccumBytes(100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1000 {
		t.Fatalf("AccumBytes(100) = %d, want 1000", got)
	}
	got, _ = AccumBytes(1000)
	if got != 10000 {
		t.Fatalf("AccumBytes(1000) = %d, want 10000", got)
	}
	if _, err := AccumBytes(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestOfPaperConfigs(t *testing.T) {
	cfg := core.Config{
		IntervalLength:   10000,
		ThresholdPercent: 1,
		TotalEntries:     2048,
		NumTables:        4,
		CounterWidth:     24,
	}
	a, err := Of(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.HashBytes != 6144 || a.AccumBytes != 1000 {
		t.Fatalf("area = %+v", a)
	}
	// Total must sit inside the paper's "7 to 16 Kilobytes" envelope.
	if a.Total() < 7*1000 || a.Total() > 16*1024 {
		t.Fatalf("10K/1%% total %d outside the paper's envelope", a.Total())
	}

	cfg.IntervalLength = 1_000_000
	cfg.ThresholdPercent = 0.1
	a, err = Of(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AccumBytes != 10000 {
		t.Fatalf("0.1%% accumulator = %d bytes, want 10000", a.AccumBytes)
	}
	if a.Total() > 17*1024 {
		t.Fatalf("1M/0.1%% total %d way outside envelope", a.Total())
	}
}

func TestOfInvalidConfig(t *testing.T) {
	if _, err := Of(core.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAreaString(t *testing.T) {
	a := Area{HashBytes: 6144, AccumBytes: 1000}
	s := a.String()
	if !strings.Contains(s, "6144") || !strings.Contains(s, "1000") || !strings.Contains(s, "7144") {
		t.Fatalf("String() = %q", s)
	}
}
