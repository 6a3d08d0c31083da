package accum

import (
	"testing"

	"hwprof/internal/event"
)

func mustNew(t *testing.T, capacity int, threshold uint64) *Table {
	t.Helper()
	tbl, err := New(capacity, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New(-5, 10); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(10, 0); err == nil {
		t.Error("threshold 0 accepted")
	}
}

func TestInsertAndCount(t *testing.T) {
	tbl := mustNew(t, 4, 100)
	tp := event.Tuple{A: 1, B: 2}
	if !tbl.Insert(tp, 100) {
		t.Fatal("insert into empty table failed")
	}
	if c, ok := tbl.Count(tp); !ok || c != 100 {
		t.Fatalf("Count = %d, %v; want 100, true", c, ok)
	}
	if !tbl.Contains(tp) {
		t.Fatal("Contains = false for resident tuple")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestIncOnResidentAndAbsent(t *testing.T) {
	tbl := mustNew(t, 4, 100)
	tp := event.Tuple{A: 1, B: 2}
	if tbl.Inc(tp) {
		t.Fatal("Inc on absent tuple reported resident")
	}
	tbl.Insert(tp, 100)
	if !tbl.Inc(tp) {
		t.Fatal("Inc on resident tuple reported absent")
	}
	if c, _ := tbl.Count(tp); c != 101 {
		t.Fatalf("count = %d, want 101", c)
	}
}

func TestInsertDuplicateIsNoOp(t *testing.T) {
	tbl := mustNew(t, 4, 100)
	tp := event.Tuple{A: 1, B: 2}
	tbl.Insert(tp, 100)
	tbl.Inc(tp)
	if !tbl.Insert(tp, 999) {
		t.Fatal("duplicate insert reported failure")
	}
	if c, _ := tbl.Count(tp); c != 101 {
		t.Fatalf("duplicate insert clobbered count: %d", c)
	}
}

func TestFullOfNonReplaceableRejects(t *testing.T) {
	tbl := mustNew(t, 2, 10)
	tbl.Insert(event.Tuple{A: 1}, 10)
	tbl.Insert(event.Tuple{A: 2}, 10)
	if tbl.Insert(event.Tuple{A: 3}, 10) {
		t.Fatal("insert into full non-replaceable table succeeded")
	}
	if tbl.Len() != 2 || !tbl.Contains(event.Tuple{A: 1}) || !tbl.Contains(event.Tuple{A: 2}) {
		t.Fatal("failed insert disturbed the table")
	}
}

func TestEvictionPrefersSmallestReplaceable(t *testing.T) {
	tbl := mustNew(t, 3, 100)
	tbl.Insert(event.Tuple{A: 1}, 100)
	tbl.Insert(event.Tuple{A: 2}, 150)
	tbl.Insert(event.Tuple{A: 3}, 120)
	// Make all retained: counters reset, replaceable.
	tbl.EndInterval(true)
	// Tuple 2 re-crosses: 100 occurrences.
	for i := 0; i < 100; i++ {
		tbl.Inc(event.Tuple{A: 2})
	}
	// Tuple 3 gets some occurrences but stays replaceable.
	for i := 0; i < 5; i++ {
		tbl.Inc(event.Tuple{A: 3})
	}
	// New promotion must evict tuple 1 (count 0, replaceable), not 3.
	if !tbl.Insert(event.Tuple{A: 4}, 100) {
		t.Fatal("insert failed despite replaceable entries")
	}
	if tbl.Contains(event.Tuple{A: 1}) {
		t.Fatal("smallest replaceable entry not evicted")
	}
	if !tbl.Contains(event.Tuple{A: 3}) || !tbl.Contains(event.Tuple{A: 2}) {
		t.Fatal("wrong entry evicted")
	}
	// Next promotion must evict 3 (count 5, replaceable); 2 is protected.
	if !tbl.Insert(event.Tuple{A: 5}, 100) {
		t.Fatal("second insert failed")
	}
	if tbl.Contains(event.Tuple{A: 3}) {
		t.Fatal("replaceable entry with count 5 not evicted")
	}
	if !tbl.Contains(event.Tuple{A: 2}) {
		t.Fatal("re-crossed (non-replaceable) entry was evicted")
	}
}

func TestRetainedEntryRecrossBecomesProtected(t *testing.T) {
	tbl := mustNew(t, 1, 10)
	tp := event.Tuple{A: 7}
	tbl.Insert(tp, 10)
	tbl.EndInterval(true)
	if c, ok := tbl.Count(tp); !ok || c != 0 {
		t.Fatalf("retained entry count = %d, %v; want 0, true", c, ok)
	}
	for i := 0; i < 9; i++ {
		tbl.Inc(tp)
	}
	// Still replaceable at 9 < 10: a new insert evicts it.
	if !tbl.Insert(event.Tuple{A: 8}, 10) {
		t.Fatal("insert over replaceable entry failed")
	}
	if tbl.Contains(tp) {
		t.Fatal("sub-threshold retained entry survived eviction")
	}
}

func TestRetainedEntryProtectedAfterRecross(t *testing.T) {
	tbl := mustNew(t, 1, 10)
	tp := event.Tuple{A: 7}
	tbl.Insert(tp, 10)
	tbl.EndInterval(true)
	for i := 0; i < 10; i++ {
		tbl.Inc(tp)
	}
	if tbl.Insert(event.Tuple{A: 8}, 10) {
		t.Fatal("insert evicted a re-crossed entry")
	}
	if !tbl.Contains(tp) {
		t.Fatal("re-crossed entry missing")
	}
}

func TestEndIntervalNoRetainFlushesAll(t *testing.T) {
	tbl := mustNew(t, 4, 10)
	tbl.Insert(event.Tuple{A: 1}, 10)
	tbl.Insert(event.Tuple{A: 2}, 20)
	tbl.EndInterval(false)
	if tbl.Len() != 0 {
		t.Fatalf("table has %d entries after flush", tbl.Len())
	}
}

func TestEndIntervalRetainDropsSubThreshold(t *testing.T) {
	tbl := mustNew(t, 4, 10)
	tbl.Insert(event.Tuple{A: 1}, 10) // candidate
	tbl.Insert(event.Tuple{A: 2}, 10)
	tbl.EndInterval(true) // both retained at 0
	tbl.Inc(event.Tuple{A: 1})
	// Entry 1 has 1 < 10, entry 2 has 0 < 10: both flushed now.
	tbl.EndInterval(true)
	if tbl.Len() != 0 {
		t.Fatalf("sub-threshold retained entries survived: %d", tbl.Len())
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	tbl := mustNew(t, 4, 10)
	tp := event.Tuple{A: 1}
	tbl.Insert(tp, 10)
	snap := tbl.SnapshotInto(nil)
	tbl.Inc(tp)
	if snap[tp] != 10 {
		t.Fatalf("snapshot mutated by later Inc: %d", snap[tp])
	}
	tbl.EndInterval(false)
	if snap[tp] != 10 {
		t.Fatal("snapshot mutated by EndInterval")
	}
}

func TestCandidatesSortedAndFiltered(t *testing.T) {
	tbl := mustNew(t, 8, 10)
	tbl.Insert(event.Tuple{A: 1}, 15)
	tbl.Insert(event.Tuple{A: 2}, 30)
	tbl.Insert(event.Tuple{A: 3}, 10)
	tbl.EndInterval(true)
	// Re-cross only tuples 2 and 3 this interval.
	for i := 0; i < 12; i++ {
		tbl.Inc(event.Tuple{A: 2})
	}
	for i := 0; i < 10; i++ {
		tbl.Inc(event.Tuple{A: 3})
	}
	got := tbl.Candidates()
	if len(got) != 2 {
		t.Fatalf("Candidates = %v, want 2 entries", got)
	}
	if got[0] != (event.Tuple{A: 2}) || got[1] != (event.Tuple{A: 3}) {
		t.Fatalf("Candidates order = %v", got)
	}
}

func TestCandidatesDeterministicTieBreak(t *testing.T) {
	tbl := mustNew(t, 8, 5)
	tbl.Insert(event.Tuple{A: 9, B: 1}, 5)
	tbl.Insert(event.Tuple{A: 3, B: 2}, 5)
	tbl.Insert(event.Tuple{A: 3, B: 1}, 5)
	got := tbl.Candidates()
	want := []event.Tuple{{A: 3, B: 1}, {A: 3, B: 2}, {A: 9, B: 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-break order = %v, want %v", got, want)
		}
	}
}

// TestWorstCaseBound verifies the paper's sizing argument (§5.1): with
// interval length L and threshold T, at most L/T tuples can reach T, so a
// 100/t%-entry table never rejects a genuine candidate when promotions are
// exact.
func TestWorstCaseBound(t *testing.T) {
	const (
		interval  = 10000
		threshold = 100 // 1% of interval
		capacity  = 100 // 100/1%
	)
	tbl := mustNew(t, capacity, threshold)
	// Adversarial stream: exactly 100 distinct tuples each occurring
	// exactly 100 times — the worst case that exactly fills the table.
	rejected := 0
	for id := uint64(0); id < interval/threshold; id++ {
		if !tbl.Insert(event.Tuple{A: id}, threshold) {
			rejected++
		}
	}
	if rejected != 0 {
		t.Fatalf("%d worst-case candidates rejected", rejected)
	}
	if tbl.Len() != capacity {
		t.Fatalf("table holds %d, want %d", tbl.Len(), capacity)
	}
}
