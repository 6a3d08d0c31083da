package vm

import (
	"fmt"

	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// PathConfig parameterizes a PathSource.
type PathConfig struct {
	// Iterations is how many loop iterations one path spans: a path ends
	// (and its ID is emitted) every Iterations-th crossing of a back edge.
	// 1 gives classic per-iteration paths; k > 1 gives the multi-iteration
	// extension, whose path IDs distinguish inter-iteration correlation
	// (an alternating branch inside a loop yields one path ID at k = 1 but
	// two distinct IDs at k = 2). Must be positive.
	Iterations int

	// MaxEdges bounds the number of control-flow edges folded into one
	// path before it is force-terminated, so loop-free stretches (deep
	// call chains, unrolled code) cannot grow paths without bound. Zero
	// selects DefaultMaxPathEdges.
	MaxEdges int

	// Loop restarts the program on halt instead of ending the stream,
	// yielding an unbounded path stream.
	Loop bool
}

// DefaultMaxPathEdges is the default bound on edges per path.
const DefaultMaxPathEdges = 64

// PathSource adapts a running Machine into an event.Source of path
// profiles in the Ball-Larus tradition, extended to paths spanning
// multiple loop iterations (D'Elia & Demetrescu, "Ball-Larus path
// profiling across multiple loop iterations").
//
// A path starts where the previous one ended, accumulates every
// control-flow edge the machine takes, and terminates at its k-th back
// edge (an edge whose target does not follow its source — the classic
// reducible-loop approximation), at a return, or at the MaxEdges bound.
// Each terminated path is emitted as the tuple
//
//	<entryPC, pathID>
//
// where entryPC is the address the path started at and pathID is a
// 64-bit fold of the exact edge sequence, so two paths share an ID iff
// they took the same edges in the same order (modulo a ~2⁻⁶⁴ hash
// collision). Where Ball-Larus assigns dense integers by weighting a DAG,
// this source names paths by hashing: the profiler only hashes and
// compares tuple halves, so dense numbering buys nothing here, while
// hashing extends unchanged to paths across iterations and calls.
// Feeding the stream to the profiler yields <pathID, count>: the hot
// acyclic (k = 1) or k-iteration paths of the program.
type PathSource struct {
	m   *Machine
	cfg PathConfig

	queue []event.Tuple
	err   error

	// current path state
	entry     uint64 // PCAddr where the current path began
	pathHash  uint64
	edges     int
	backEdges int
	started   bool
}

// NewPathSource attaches a path profiler to m. It overwrites m's OnEdge
// hook; the OnValue/OnCond/OnMem hooks are left untouched.
func NewPathSource(m *Machine, cfg PathConfig) (*PathSource, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("vm: path iterations %d must be positive", cfg.Iterations)
	}
	if cfg.MaxEdges < 0 {
		return nil, fmt.Errorf("vm: path edge bound %d must be non-negative", cfg.MaxEdges)
	}
	if cfg.MaxEdges == 0 {
		cfg.MaxEdges = DefaultMaxPathEdges
	}
	s := &PathSource{m: m, cfg: cfg}
	m.OnEdge = s.onEdge
	return s, nil
}

// pathStep folds one edge into a running path hash. It is the SplitMix64
// finalizer over the running hash xor the edge name, so the fold is
// order-sensitive: paths that traverse the same edges in different orders
// get different IDs.
func pathStep(h, from, to uint64) uint64 {
	return xrand.Mix64(h ^ (from << 1) ^ (to * 0x9e3779b97f4a7c15))
}

func (s *PathSource) onEdge(tp event.Tuple) {
	if !s.started {
		s.entry = tp.A
		s.started = true
	}
	s.pathHash = pathStep(s.pathHash, tp.A, tp.B)
	s.edges++
	// A back edge is a transfer that does not move forward: loop latches
	// and self-loops in this ISA's reducible programs, by construction of
	// the assembler's layout.
	if tp.B <= tp.A {
		s.backEdges++
	}
	if s.backEdges >= s.cfg.Iterations || s.edges >= s.cfg.MaxEdges {
		s.emit(tp.B)
	}
}

// emit terminates the current path and starts the next one at nextEntry.
func (s *PathSource) emit(nextEntry uint64) {
	s.queue = append(s.queue, event.Tuple{A: s.entry, B: s.pathHash})
	s.entry = nextEntry
	s.pathHash = 0
	s.edges = 0
	s.backEdges = 0
}

// flush emits whatever partial path is pending (used at halt, so the tail
// of a run is never silently dropped).
func (s *PathSource) flush() {
	if s.started && s.edges > 0 {
		s.emit(0)
	}
	s.started = false
}

// Next returns the next completed path tuple; ok == false means the
// program halted (with Loop unset) or trapped — check Err.
func (s *PathSource) Next() (event.Tuple, bool) {
	for len(s.queue) == 0 {
		if s.err != nil {
			return event.Tuple{}, false
		}
		if s.m.Halted() {
			s.flush()
			if len(s.queue) > 0 {
				break
			}
			if !s.cfg.Loop {
				return event.Tuple{}, false
			}
			s.m.Reset()
		}
		if err := s.m.Step(); err != nil {
			s.err = err
			return event.Tuple{}, false
		}
	}
	tp := s.queue[0]
	s.queue = s.queue[1:]
	return tp, true
}

// Err returns the machine trap that ended the stream, if any.
func (s *PathSource) Err() error { return s.err }

var _ event.Source = (*PathSource)(nil)
