package counter

import (
	"testing"

	"hwprof/internal/xrand"
)

func TestNewSetValidation(t *testing.T) {
	cases := []struct {
		tables, size int
		width        uint
	}{
		{0, 8, 8}, {-1, 8, 8}, {2, 0, 8}, {2, -4, 8}, {2, 8, 0}, {2, 8, 65},
	}
	for _, c := range cases {
		if _, err := NewSet(c.tables, c.size, c.width); err == nil {
			t.Errorf("NewSet(%d, %d, %d) accepted invalid shape", c.tables, c.size, c.width)
		}
	}
}

func TestSetBankOffsets(t *testing.T) {
	s, err := NewSet(4, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Same index in different banks must be independent counters.
	s.IncAt(3)
	for i := 0; i < 5; i++ {
		s.IncAt(2*s.Size() + 3)
	}
	for bank := 0; bank < 4; bank++ {
		want := uint64(0)
		switch bank {
		case 0:
			want = 1
		case 2:
			want = 5
		}
		if got := s.Get(bank, 3); got != want {
			t.Errorf("bank %d counter 3 = %d, want %d", bank, got, want)
		}
		if got := s.GetAt(bank*s.Size() + 3); got != want {
			t.Errorf("GetAt(%d*Size()+3) = %d, want %d", bank, got, want)
		}
	}
}

// TestSetEpochFlush verifies the O(1) flush: after Flush, every counter
// reads zero without any word having been rewritten.
func TestSetEpochFlush(t *testing.T) {
	s, err := NewSet(2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 16; j++ {
		for i := 0; i < j; i++ {
			s.IncAt(j)
		}
	}
	s.Flush()
	for j := 0; j < 16; j++ {
		if got := s.GetAt(j); got != 0 {
			t.Fatalf("counter %d = %d after Flush, want 0", j, got)
		}
	}
	// A stale counter incremented after the flush restarts from zero, not
	// from its pre-flush value.
	if got := s.IncAt(5); got != 1 {
		t.Fatalf("IncAt after Flush = %d, want 1", got)
	}
}

// TestSetEpochWrap drives the packed epoch tag all the way around: the
// sweep at wrap must behave exactly like every other flush.
func TestSetEpochWrap(t *testing.T) {
	const width = 24 // 8 tag bits: wraps after 255 epoch bumps
	s, err := NewSet(1, 4, width)
	if err != nil {
		t.Fatal(err)
	}
	wraps := int(s.epochMax) + 2 // cross the sweep boundary with margin
	for f := 0; f < wraps; f++ {
		if got := s.IncAt(1); got != 1 {
			t.Fatalf("flush %d: IncAt = %d, want 1 (leak across flush)", f, got)
		}
		for i := 0; i < 7; i++ {
			s.IncAt(3)
		}
		s.Flush()
		for j := 0; j < 4; j++ {
			if got := s.GetAt(j); got != 0 {
				t.Fatalf("flush %d: counter %d = %d after Flush, want 0", f, j, got)
			}
		}
	}
}

// TestSetPackedMatchesWide runs the same random operation stream through a
// packed set and a wide (uint64 fallback) set of the same saturation
// point, checking they agree at every step. The width is small and the
// counters few, so increments run into saturation between flushes.
func TestSetPackedMatchesWide(t *testing.T) {
	const width = 3
	packed, err := NewSet(2, 4, width)
	if err != nil {
		t.Fatal(err)
	}
	if packed.words == nil {
		t.Fatal("width 3 should take the packed path")
	}
	// Reference: same shape forced onto the wide path.
	wide := &Set{tables: 2, size: 4, width: width, max: 1<<width - 1,
		wide: make([]uint64, 2*4)}

	r := xrand.New(0x5E7)
	saturated := 0
	for op := 0; op < 200_000; op++ {
		j := int(r.Uint64() % 8)
		switch r.Uint64() % 128 {
		case 0, 1, 2, 3:
			packed.ResetAt(j)
			wide.ResetAt(j)
		case 4:
			packed.Flush()
			wide.Flush()
		default:
			before := packed.GetAt(j)
			p, w := packed.IncAt(j), wide.IncAt(j)
			if p != w {
				t.Fatalf("op %d: IncAt(%d) packed %d, wide %d", op, j, p, w)
			}
			if before == wide.max {
				saturated++
			}
		}
		if p, w := packed.GetAt(j), wide.GetAt(j); p != w {
			t.Fatalf("op %d: GetAt(%d) packed %d, wide %d", op, j, p, w)
		}
	}
	if saturated == 0 {
		t.Fatal("no increment reached a saturated counter")
	}
}

func TestSetWideFallback(t *testing.T) {
	s, err := NewSet(2, 8, 32) // width > 24: wide path
	if err != nil {
		t.Fatal(err)
	}
	if s.wide == nil {
		t.Fatal("width 32 should take the wide path")
	}
	j := 1*s.Size() + 2
	s.wide[j] = s.max - 1
	for i := 0; i < 2; i++ {
		if got := s.IncAt(j); got != s.max {
			t.Errorf("wide IncAt at the top = %d, want saturation at %d", got, s.max)
		}
	}
	s.Flush()
	if got := s.Get(1, 2); got != 0 {
		t.Errorf("wide counter = %d after Flush, want 0", got)
	}
}

func BenchmarkSetIncAt(b *testing.B) {
	s, err := NewSet(4, 512, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.IncAt(i & 2047)
	}
}

func BenchmarkSetFlush(b *testing.B) {
	s, err := NewSet(4, 512, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Flush()
	}
}
