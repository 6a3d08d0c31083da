// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Every stochastic component in this reproduction (hash-function tables,
// workload synthesis, trace generation) draws from xrand so that a given
// seed always yields a bit-identical run, on any platform, independent of
// the Go release. The generators are SplitMix64 (for seeding and cheap
// stateless streams) and xoshiro256** (for bulk generation).
package xrand

import "math/bits"

// SplitMix64 advances the given state and returns the next value of the
// SplitMix64 sequence. It is the recommended seeder for xoshiro-family
// generators and is also useful as a stateless mixing function.
func SplitMix64(state *uint64) uint64 {
	x := *state
	*state += 0x9e3779b97f4a7c15
	return Mix64(x)
}

// Mix64 returns a well-mixed function of x. It is the SplitMix64 finalizer
// and is suitable for turning structured integers (indices, PCs) into
// uniformly distributed words.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a deterministic xoshiro256** generator.
// The zero value is not usable; construct one with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, per the xoshiro
// authors' recommendation. Distinct seeds give effectively independent
// streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// An all-zero state is the one forbidden state; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, via the Fisher-Yates algorithm.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
