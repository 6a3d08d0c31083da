package cache

import (
	"testing"

	"hwprof/internal/xrand"
)

func cfg4KB() Config { return Config{SizeBytes: 4096, Ways: 4, LineBytes: 32} }

func TestValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 1, LineBytes: 32},
		{SizeBytes: 4096, Ways: 0, LineBytes: 32},
		{SizeBytes: 4096, Ways: 1, LineBytes: 0},
		{SizeBytes: 4096, Ways: 1, LineBytes: 48},     // non power-of-two line
		{SizeBytes: 4000, Ways: 4, LineBytes: 32},     // indivisible
		{SizeBytes: 4096 * 3, Ways: 4, LineBytes: 32}, // 96 sets, not power of two
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	c, err := New(cfg4KB())
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Sets() != 32 {
		t.Fatalf("sets = %d, want 32", c.cfg.Sets())
	}
}

func TestHitAfterMiss(t *testing.T) {
	c, _ := New(cfg4KB())
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x101f) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1020) {
		t.Fatal("next-line access hit")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("stats: %d/%d", c.Misses, c.Accesses)
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct construction of a conflict set: addresses that differ only
	// above the index bits land in the same set.
	c, _ := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 32}) // 4 sets
	way := func(i uint64) uint64 { return i * 32 * 4 }          // same set 0
	c.Access(way(0))
	c.Access(way(1))
	c.Access(way(0)) // touch 0: LRU is now 1
	c.Access(way(2)) // evicts 1
	if !c.Access(way(0)) {
		t.Fatal("recently used line evicted")
	}
	if c.Access(way(1)) {
		t.Fatal("LRU line not evicted")
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	c, _ := New(cfg4KB())
	// 2 KB working set in a 4 KB cache: after one pass, everything hits.
	for pass := 0; pass < 3; pass++ {
		c.ResetStats()
		for a := uint64(0); a < 2048; a += 8 {
			c.Access(a)
		}
		if pass > 0 && c.Misses != 0 {
			t.Fatalf("pass %d: %d misses on resident working set", pass, c.Misses)
		}
	}
}

func TestThrashingWorkingSetMisses(t *testing.T) {
	c, _ := New(cfg4KB())
	// 64 KB streaming scan: essentially everything misses.
	for a := uint64(0); a < 64*1024; a += 32 {
		c.Access(a)
	}
	if got := c.MissRate(); got < 0.99 {
		t.Fatalf("streaming miss rate = %v, want ~1", got)
	}
}

func TestLineAddr(t *testing.T) {
	c, _ := New(cfg4KB())
	if c.LineAddr(0x1234) != 0x1220 {
		t.Fatalf("LineAddr = %#x", c.LineAddr(0x1234))
	}
}

func TestFlush(t *testing.T) {
	c, _ := New(cfg4KB())
	c.Access(0x40)
	c.Flush()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("stats survived flush")
	}
	if c.Access(0x40) {
		t.Fatal("line survived flush")
	}
}

func TestMissRateZeroBeforeAccess(t *testing.T) {
	c, _ := New(cfg4KB())
	if c.MissRate() != 0 {
		t.Fatal("MissRate nonzero on fresh cache")
	}
}

// TestInclusionMonotonicity: a larger cache of the same geometry family
// never misses more on the same trace (LRU stack property holds per set
// when doubling associativity with fixed sets... here we check the looser
// empirical property for random traces: bigger cache, fewer misses).
func TestBiggerCacheFewerMisses(t *testing.T) {
	small, _ := New(Config{SizeBytes: 1024, Ways: 2, LineBytes: 32})
	big, _ := New(Config{SizeBytes: 8192, Ways: 2, LineBytes: 32})
	r := xrand.New(5)
	for i := 0; i < 50000; i++ {
		a := r.Uint64n(16 * 1024)
		small.Access(a)
		big.Access(a)
	}
	if big.Misses > small.Misses {
		t.Fatalf("big cache missed more: %d vs %d", big.Misses, small.Misses)
	}
}

func BenchmarkAccess(b *testing.B) {
	c, _ := New(Config{SizeBytes: 32 * 1024, Ways: 4, LineBytes: 32})
	r := xrand.New(1)
	addrs := make([]uint64, 1<<12)
	for i := range addrs {
		addrs[i] = r.Uint64n(64 * 1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(1<<12-1)])
	}
}
