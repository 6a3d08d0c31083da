// Package synth synthesizes profiling-event streams with the statistical
// structure of the paper's benchmark traces.
//
// The paper profiled ATOM-instrumented Alpha binaries of SPEC95/2000 and
// C++ programs. Those traces cannot be regenerated, but every accuracy
// phenomenon the paper measures is a function of the tuple stream's
// statistics, not of the programs themselves:
//
//   - a small hot set of candidate tuples holding most of the dynamic mass
//     (Figure 5: ≤ ~30 tuples cross 1%, ≤ ~200 cross 0.1%),
//   - a warm set of recurring tuples straddling the 0.1% threshold,
//   - a large noise pool of rarely repeating tuples that drives the
//     distinct-tuple counts of Figure 4 and the aliasing pressure,
//   - phase behaviour that changes which tuples are hot (Figure 6).
//
// A Model captures those four knobs; the eight named benchmark analogs
// below are Models tuned so their Figure 4–6 statistics land where the
// paper's benchmarks do (gcc/go noisiest and most phase-varying, li most
// stable, m88ksim/vortex fast-alternating so 10K intervals vary but 1M
// intervals are stable, deltablue slowly phase-shifting so the reverse).
package synth

import (
	"fmt"
	"sort"

	"hwprof/internal/dist"
	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// Model parameterizes a synthetic workload. The three mass fractions
// (HotMass, WarmMass and the implied noise mass 1−HotMass−WarmMass) split
// dynamic events among the hot set, warm set and noise pool.
type Model struct {
	// Name identifies the workload in reports.
	Name string

	// Kind is the tuple kind the stream claims to be.
	Kind event.Kind

	// HotTuples is the number of hot static tuples per phase; HotSkew is
	// the Zipf exponent over them; HotMass is the fraction of dynamic
	// events drawn from the hot set.
	HotTuples int
	HotSkew   float64
	HotMass   float64

	// WarmTuples recur uniformly and share WarmMass of the dynamic
	// events; tuned per benchmark so they straddle the 0.1% threshold
	// but stay below 1%.
	WarmTuples int
	WarmMass   float64

	// MidTuples recur uniformly with MidMass, parameterized so each sits
	// just *below* the long-regime candidate threshold. They are the
	// aliasing hazard the paper's single-hash architecture suffers from:
	// two mid tuples colliding in one 2K-entry table sum past the
	// threshold (a false positive), while colliding in all four tables of
	// a multi-hash profiler is rare.
	MidTuples int
	MidMass   float64

	// NoisePool is the size of the space rarely repeating tuples are
	// drawn from (uniformly); the remaining event mass goes here.
	NoisePool int

	// Phases, PhaseDwell and PhaseJump drive a dist.PhaseModel that
	// switches the hot and warm sets. PhaseOverlap is the fraction of
	// each phase's hot set shared with every other phase.
	Phases       int
	PhaseDwell   uint64
	PhaseJump    bool
	PhaseOverlap float64
}

// Validate reports whether the model is internally consistent.
func (m Model) Validate() error {
	if m.HotTuples <= 0 {
		return fmt.Errorf("synth: %s: HotTuples %d must be positive", m.Name, m.HotTuples)
	}
	if m.HotSkew < 0 {
		return fmt.Errorf("synth: %s: HotSkew %v must be non-negative", m.Name, m.HotSkew)
	}
	if m.WarmTuples < 0 {
		return fmt.Errorf("synth: %s: WarmTuples %d must be non-negative", m.Name, m.WarmTuples)
	}
	if m.MidTuples < 0 {
		return fmt.Errorf("synth: %s: MidTuples %d must be non-negative", m.Name, m.MidTuples)
	}
	if m.HotMass < 0 || m.WarmMass < 0 || m.MidMass < 0 || m.HotMass+m.WarmMass+m.MidMass > 1 {
		return fmt.Errorf("synth: %s: masses hot=%v warm=%v mid=%v invalid", m.Name, m.HotMass, m.WarmMass, m.MidMass)
	}
	if m.NoisePool <= 0 {
		return fmt.Errorf("synth: %s: NoisePool %d must be positive", m.Name, m.NoisePool)
	}
	if m.Phases <= 0 {
		return fmt.Errorf("synth: %s: Phases %d must be positive", m.Name, m.Phases)
	}
	if m.PhaseDwell == 0 {
		return fmt.Errorf("synth: %s: PhaseDwell must be positive", m.Name)
	}
	if m.PhaseOverlap < 0 || m.PhaseOverlap > 1 {
		return fmt.Errorf("synth: %s: PhaseOverlap %v outside [0,1]", m.Name, m.PhaseOverlap)
	}
	return nil
}

// Generator is an infinite event.Source drawing from a Model.
type Generator struct {
	model Model
	r     *xrand.Rand
	zipf  *dist.Zipf
	phase *dist.PhaseModel

	// hot[p][rank] is the tuple at a given Zipf rank in phase p; shared
	// tuples appear in every phase at phase-permuted ranks.
	hot  [][]event.Tuple
	warm [][]event.Tuple
	mid  [][]event.Tuple

	seed uint64
}

// NewGenerator builds a deterministic generator for the model; equal
// (model, seed) pairs produce identical streams.
func NewGenerator(m Model, seed uint64) (*Generator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	z, err := dist.NewZipf(m.HotTuples, m.HotSkew)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", m.Name, err)
	}
	ph, err := dist.NewPhaseModel(m.Phases, m.PhaseDwell, m.PhaseJump)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", m.Name, err)
	}
	g := &Generator{
		model: m,
		r:     xrand.New(seed),
		zipf:  z,
		phase: ph,
		seed:  seed,
	}
	g.buildSets()
	return g, nil
}

// tupleID builds a deterministic tuple in a tagged namespace so hot, warm
// and noise tuples can never collide with each other.
func (g *Generator) tupleID(domain uint64, id uint64) event.Tuple {
	base := xrand.Mix64(g.seed ^ domain<<56 ^ id)
	// Shape the halves like <pc, value>: a text-segment-looking PC and a
	// small-ish value, purely cosmetic but it exercises the hash's
	// structured-input path.
	return event.Tuple{
		A: 0x400000 + (base&0xffffff)<<2,
		B: xrand.Mix64(base) & 0xffffffff,
	}
}

const (
	domainSharedHot = 1
	domainPhaseHot  = 2
	domainWarm      = 3
	domainNoise     = 4
	domainMid       = 5
)

// buildSets materializes per-phase hot and warm tuple tables.
func (g *Generator) buildSets() {
	m := g.model
	shared := int(m.PhaseOverlap * float64(m.HotTuples))
	sharedTuples := make([]event.Tuple, shared)
	for i := range sharedTuples {
		sharedTuples[i] = g.tupleID(domainSharedHot, uint64(i))
	}
	g.hot = make([][]event.Tuple, m.Phases)
	g.warm = make([][]event.Tuple, m.Phases)
	g.mid = make([][]event.Tuple, m.Phases)
	for p := 0; p < m.Phases; p++ {
		hot := make([]event.Tuple, 0, m.HotTuples)
		hot = append(hot, sharedTuples...)
		for i := shared; i < m.HotTuples; i++ {
			hot = append(hot, g.tupleID(domainPhaseHot, uint64(p)<<32|uint64(i)))
		}
		// Permute rank→tuple per phase so shared tuples change rank (and
		// hence frequency) across phases; deterministic via seeded RNG.
		pr := xrand.New(g.seed ^ 0x9a7e<<32 ^ uint64(p))
		pr.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
		g.hot[p] = hot

		// Warm set: half shared across phases, half phase-local, so warm
		// candidates at 0.1% also shift with phases.
		warm := make([]event.Tuple, m.WarmTuples)
		for i := range warm {
			id := uint64(i)
			if i%2 == 1 {
				id = uint64(p)<<32 | uint64(i)
			}
			warm[i] = g.tupleID(domainWarm, id)
		}
		g.warm[p] = warm

		// Mid band: mostly shared (these model stable sub-threshold
		// repeaters like moderately-hot loads).
		mid := make([]event.Tuple, m.MidTuples)
		for i := range mid {
			id := uint64(i)
			if i%4 == 3 {
				id = uint64(p)<<32 | uint64(i)
			}
			mid[i] = g.tupleID(domainMid, id)
		}
		g.mid[p] = mid
	}
}

// Next produces the next tuple; the stream never ends.
func (g *Generator) Next() (event.Tuple, bool) {
	p := g.phase.Tick(g.r)
	u := g.r.Float64()
	m := &g.model
	switch {
	case u < m.HotMass:
		rank := g.zipf.Sample(g.r)
		return g.hot[p][rank], true
	case u < m.HotMass+m.WarmMass && m.WarmTuples > 0:
		return g.warm[p][g.r.Intn(m.WarmTuples)], true
	case u < m.HotMass+m.WarmMass+m.MidMass && m.MidTuples > 0:
		return g.mid[p][g.r.Intn(m.MidTuples)], true
	default:
		return g.tupleID(domainNoise, g.r.Uint64n(uint64(m.NoisePool))), true
	}
}

// Err always returns nil: the generator is a pure function of its model
// and seed and cannot fail mid-stream.
func (g *Generator) Err() error { return nil }

var _ event.Source = (*Generator)(nil)

// benchmarks is the analog suite, tuned to the shape targets in DESIGN.md.
var benchmarks = map[string]Model{
	"burg": {
		Name: "burg", HotTuples: 30, HotSkew: 1.3, HotMass: 0.72,
		WarmTuples: 300, WarmMass: 0.10, MidTuples: 60, MidMass: 0.045,
		NoisePool: 500_000,
		Phases:    3, PhaseDwell: 1_500_000, PhaseJump: false, PhaseOverlap: 0.5,
	},
	"deltablue": {
		Name: "deltablue", HotTuples: 25, HotSkew: 1.2, HotMass: 0.70,
		WarmTuples: 200, WarmMass: 0.10, NoisePool: 1_000_000,
		Phases: 6, PhaseDwell: 2_000_000, PhaseJump: false, PhaseOverlap: 0.25,
	},
	"gcc": {
		Name: "gcc", HotTuples: 120, HotSkew: 0.9, HotMass: 0.62,
		WarmTuples: 800, WarmMass: 0.08, MidTuples: 150, MidMass: 0.12,
		NoisePool: 4_000_000,
		Phases:    10, PhaseDwell: 2_000_000, PhaseJump: true, PhaseOverlap: 0.55,
	},
	"go": {
		Name: "go", HotTuples: 100, HotSkew: 0.92, HotMass: 0.58,
		WarmTuples: 800, WarmMass: 0.08, MidTuples: 130, MidMass: 0.10,
		NoisePool: 3_000_000,
		Phases:    8, PhaseDwell: 2_500_000, PhaseJump: true, PhaseOverlap: 0.6,
	},
	"li": {
		Name: "li", HotTuples: 20, HotSkew: 1.4, HotMass: 0.80,
		WarmTuples: 150, WarmMass: 0.10, NoisePool: 200_000,
		Phases: 2, PhaseDwell: 5_000_000, PhaseJump: false, PhaseOverlap: 0.8,
	},
	"m88ksim": {
		Name: "m88ksim", HotTuples: 25, HotSkew: 1.3, HotMass: 0.75,
		WarmTuples: 200, WarmMass: 0.12, NoisePool: 300_000,
		Phases: 4, PhaseDwell: 5_000, PhaseJump: true, PhaseOverlap: 0.5,
	},
	"sis": {
		Name: "sis", HotTuples: 35, HotSkew: 1.15, HotMass: 0.60,
		WarmTuples: 800, WarmMass: 0.14, MidTuples: 80, MidMass: 0.06,
		NoisePool: 1_000_000,
		Phases:    5, PhaseDwell: 800_000, PhaseJump: false, PhaseOverlap: 0.4,
	},
	"vortex": {
		Name: "vortex", HotTuples: 30, HotSkew: 1.25, HotMass: 0.70,
		WarmTuples: 600, WarmMass: 0.09, MidTuples: 100, MidMass: 0.075,
		NoisePool: 800_000,
		Phases:    4, PhaseDwell: 8_000, PhaseJump: true, PhaseOverlap: 0.6,
	},
}

// Benchmarks returns the analog suite's names in the paper's order.
func Benchmarks() []string {
	names := make([]string, 0, len(benchmarks))
	for n := range benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BenchmarkModel returns the named analog's Model adapted to the tuple
// kind. Edge streams see markedly fewer distinct tuples than value streams
// (paper §6.4.2), so the edge variant shrinks the noise pool and shifts its
// mass into the hot set.
func BenchmarkModel(name string, kind event.Kind) (Model, error) {
	m, ok := benchmarks[name]
	if !ok {
		return Model{}, fmt.Errorf("synth: unknown benchmark %q (have %v)", name, Benchmarks())
	}
	m.Kind = kind
	if kind == event.KindEdge {
		noise := 1 - m.HotMass - m.WarmMass
		m.HotMass += noise / 2
		m.NoisePool = m.NoisePool/8 + 1
		m.WarmTuples = m.WarmTuples/2 + 1
	}
	return m, nil
}

// NewBenchmark builds a generator for a named analog. The same
// (name, kind, seed) triple always produces the same stream.
func NewBenchmark(name string, kind event.Kind, seed uint64) (*Generator, error) {
	m, err := BenchmarkModel(name, kind)
	if err != nil {
		return nil, err
	}
	return NewGenerator(m, seed^xrand.Mix64(uint64(len(name))+uint64(name[0])<<8))
}

// Interleave merges several sources by deterministic round-robin with a
// fixed quantum of events per turn — a multiprogrammed machine as the
// profiler sees it. The paper's selling point is OS independence: the
// hardware profiles whatever stream executes, context switches included,
// with no software involvement. quantum is the context-switch granularity
// in events.
func Interleave(quantum uint64, sources ...event.Source) (event.Source, error) {
	if quantum == 0 {
		return nil, fmt.Errorf("synth: interleave quantum must be positive")
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("synth: interleave needs at least one source")
	}
	return &interleaved{quantum: quantum, sources: sources}, nil
}

// interleaved is the round-robin merge behind Interleave. A failed source
// ends the merged stream immediately — a multiprogrammed trace with one
// corrupt constituent is corrupt as a whole — and Err surfaces the failure.
type interleaved struct {
	quantum uint64
	sources []event.Source
	cur     int
	used    uint64
	err     error
}

func (s *interleaved) Next() (event.Tuple, bool) {
	if s.err != nil {
		return event.Tuple{}, false
	}
	for tries := 0; tries < len(s.sources); tries++ {
		if s.used >= s.quantum {
			s.cur = (s.cur + 1) % len(s.sources)
			s.used = 0
		}
		tp, ok := s.sources[s.cur].Next()
		if ok {
			s.used++
			return tp, true
		}
		if err := s.sources[s.cur].Err(); err != nil {
			s.err = fmt.Errorf("synth: interleave source %d: %w", s.cur, err)
			return event.Tuple{}, false
		}
		// Source exhausted cleanly: rotate to the next one immediately.
		s.cur = (s.cur + 1) % len(s.sources)
		s.used = 0
	}
	return event.Tuple{}, false
}

// Err returns the failure of the constituent source that ended the merged
// stream, if any.
func (s *interleaved) Err() error { return s.err }
