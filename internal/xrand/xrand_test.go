package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged at step %d: %x vs %x", i, x, y)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the SplitMix64 reference
	// implementation by Sebastiano Vigna.
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
		0xf88bb8a8724c81ec, 0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared sanity check over 16 buckets.
	r := New(17)
	const buckets, n = 16, 160000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is ~37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-squared = %v, distribution looks non-uniform: %v", chi2, counts)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(23)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed the multiset: sum %d != %d", got, sum)
	}
}

func TestMix64AvalanchesLowBits(t *testing.T) {
	// Consecutive inputs must not map to consecutive outputs.
	adjacent := 0
	for i := uint64(0); i < 1000; i++ {
		if Mix64(i+1)-Mix64(i) == 1 {
			adjacent++
		}
	}
	if adjacent > 1 {
		t.Fatalf("Mix64 preserved adjacency %d times", adjacent)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64n(12345)
	}
}
