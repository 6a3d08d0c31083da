// Package dist provides the discrete probability distributions used to
// synthesize profiling workloads: Zipf-distributed hot sets, arbitrary
// categorical distributions via Walker's alias method, and a phase model
// for programs whose working set drifts over time.
//
// The paper's accuracy phenomena are driven entirely by the statistics of
// the tuple stream — a small set of heavy hitters above the candidate
// threshold, a long tail of rarely repeating "noise" tuples, and
// phase-to-phase variation in which tuples are hot (paper Figures 4–6).
// These distributions are the knobs that reproduce those statistics.
package dist

import (
	"fmt"
	"math"

	"hwprof/internal/xrand"
)

// Zipf samples ranks 0..n−1 with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF and samples by binary search
// (inversion), which is exact, allocation-free per sample, and fast enough
// for the million-event streams the experiments use.
type Zipf struct {
	cdf []float64
}

// NewZipf returns a Zipf distribution over n ranks with exponent s.
// n must be positive and s must be non-negative and finite; s == 0
// degenerates to the uniform distribution.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: Zipf size %d must be positive", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("dist: Zipf exponent %v must be finite and non-negative", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}, nil
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Sample draws a rank in [0, N) using r.
func (z *Zipf) Sample(r *xrand.Rand) int {
	u := r.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Alias samples from an arbitrary categorical distribution in O(1) per
// draw using Walker's alias method.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table for the given non-negative weights.
// At least one weight must be positive.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("dist: alias table needs at least one weight")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: weight %d = %v is not a finite non-negative number", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: all weights are zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// N returns the number of categories.
func (a *Alias) N() int { return len(a.prob) }

// Sample draws a category index using r.
func (a *Alias) Sample(r *xrand.Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// PhaseModel drifts an integer "phase" over time. Programs like gcc change
// their hot tuple set as they move between compilation units; m88ksim barely
// changes at all (paper Figure 6). A PhaseModel holds the current phase for
// dwell events, then advances; Jump controls whether the next phase is
// adjacent (gradual drift) or random (abrupt shifts).
type PhaseModel struct {
	numPhases int
	dwell     uint64
	jump      bool

	phase     int
	remaining uint64
}

// NewPhaseModel returns a model over numPhases phases, each lasting dwell
// events. If jump is true the model teleports to a uniformly random phase
// at each boundary; otherwise it steps to the next phase cyclically.
func NewPhaseModel(numPhases int, dwell uint64, jump bool) (*PhaseModel, error) {
	if numPhases <= 0 {
		return nil, fmt.Errorf("dist: phase count %d must be positive", numPhases)
	}
	if dwell == 0 {
		return nil, fmt.Errorf("dist: phase dwell must be positive")
	}
	return &PhaseModel{numPhases: numPhases, dwell: dwell, jump: jump, remaining: dwell}, nil
}

// Phase returns the current phase without advancing time.
func (p *PhaseModel) Phase() int { return p.phase }

// Tick consumes one event of dwell time and returns the phase that event
// belongs to, advancing to the next phase when the dwell expires.
func (p *PhaseModel) Tick(r *xrand.Rand) int {
	cur := p.phase
	p.remaining--
	if p.remaining == 0 {
		p.remaining = p.dwell
		if p.jump && p.numPhases > 1 {
			next := r.Intn(p.numPhases - 1)
			if next >= p.phase {
				next++ // uniform over the other phases
			}
			p.phase = next
		} else {
			p.phase = (p.phase + 1) % p.numPhases
		}
	}
	return cur
}
