package vm

import (
	"testing"

	"hwprof/internal/event"
)

// loopProg alternates a branch inside a counted loop: iteration i takes
// the "even" arm when i is even. Classic per-iteration path profiling
// sees two path IDs each covering half the iterations; two-iteration
// paths see the even→odd and odd→even pairings as distinct IDs.
const loopProg = `
        li   r1, 0          ; i
        li   r2, 16         ; trip count
        li   r3, 2
loop:   mod  r4, r1, r3
        li   r5, 0
        beq  r4, r5, even
        addi r6, r6, 3      ; odd arm
        jmp  join
even:   addi r6, r6, 1
join:   addi r1, r1, 1
        blt  r1, r2, loop
        halt
`

func pathMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := AssembleMachine(loopProg, 8)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return m
}

func collectPaths(t *testing.T, cfg PathConfig) []event.Tuple {
	t.Helper()
	m := pathMachine(t)
	src, err := NewPathSource(m, cfg)
	if err != nil {
		t.Fatalf("NewPathSource: %v", err)
	}
	tuples := event.Collect(src, 0)
	if src.Err() != nil {
		t.Fatalf("path stream failed: %v", src.Err())
	}
	return tuples
}

func TestPathSourceRejectsBadConfig(t *testing.T) {
	m := pathMachine(t)
	if _, err := NewPathSource(m, PathConfig{Iterations: 0}); err == nil {
		t.Fatal("Iterations 0 accepted")
	}
	if _, err := NewPathSource(m, PathConfig{Iterations: 1, MaxEdges: -1}); err == nil {
		t.Fatal("negative MaxEdges accepted")
	}
}

func TestPathSourceDeterministic(t *testing.T) {
	a := collectPaths(t, PathConfig{Iterations: 1})
	b := collectPaths(t, PathConfig{Iterations: 1})
	if len(a) == 0 {
		t.Fatal("no paths emitted")
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("path %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// distinctIDs counts the distinct path IDs among tuples sharing any entry.
func distinctIDs(tuples []event.Tuple) int {
	ids := make(map[uint64]struct{})
	for _, tp := range tuples {
		ids[tp.B] = struct{}{}
	}
	return len(ids)
}

func TestMultiIterationPathsRefineSingleIteration(t *testing.T) {
	one := collectPaths(t, PathConfig{Iterations: 1})
	two := collectPaths(t, PathConfig{Iterations: 2})
	if len(one) == 0 || len(two) == 0 {
		t.Fatalf("no paths: k=1 %d, k=2 %d", len(one), len(two))
	}
	// Spanning two iterations halves (±1 for the tail) the emission count…
	if len(two) >= len(one) {
		t.Fatalf("k=2 emitted %d paths, k=1 emitted %d — spanning did not coalesce", len(two), len(one))
	}
	// …and the alternating branch means k=1 sees the even and odd arms as
	// separate IDs, while k=2 sees even→odd pairs: both regimes must
	// resolve more than one steady-state path, and the ID populations must
	// differ (the IDs name different objects).
	if distinctIDs(one) < 2 {
		t.Fatalf("k=1 resolved %d distinct IDs, want >= 2", distinctIDs(one))
	}
	oneIDs := make(map[uint64]struct{})
	for _, tp := range one {
		oneIDs[tp.B] = struct{}{}
	}
	overlap := 0
	for _, tp := range two {
		if _, ok := oneIDs[tp.B]; ok {
			overlap++
		}
	}
	if overlap == len(two) {
		t.Fatal("every k=2 path ID also appears at k=1 — iteration spanning had no effect")
	}
}

func TestPathOrderSensitivity(t *testing.T) {
	// The fold must distinguish edge order: A→B then B→C vs A→C then C→B.
	h1 := pathStep(pathStep(0, 1, 2), 2, 3)
	h2 := pathStep(pathStep(0, 1, 3), 3, 2)
	if h1 == h2 {
		t.Fatal("pathStep folded two different edge sequences to one ID")
	}
}

// TestPathStepPinned pins the path fold to fixed values, so that path IDs
// stay stable across changes to the SplitMix64 mixing behind them.
func TestPathStepPinned(t *testing.T) {
	for _, c := range []struct{ got, want uint64 }{
		{pathStep(0, 0, 0), 0xe220a8397b1dcdaf},
		{pathStep(0, 1, 2), 0xd0d5127a96e8d90d},
		{pathStep(pathStep(0x1234, 0x400100, 0x400200), 0x400200, 0x400100), 0x7c8885003dc57e55},
	} {
		if c.got != c.want {
			t.Errorf("pathStep = %#x, want %#x", c.got, c.want)
		}
	}
}

func TestPathMaxEdgesBoundsPaths(t *testing.T) {
	// A straight-line program with no back edges must still emit paths.
	const straight = `
        li   r1, 1
        li   r2, 2
        add  r3, r1, r2
        jmp  next
next:   add  r3, r3, r1
        jmp  next2
next2:  add  r3, r3, r2
        halt
`
	m, err := AssembleMachine(straight, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	src, err := NewPathSource(m, PathConfig{Iterations: 4, MaxEdges: 1})
	if err != nil {
		t.Fatalf("NewPathSource: %v", err)
	}
	tuples := event.Collect(src, 0)
	if src.Err() != nil {
		t.Fatalf("stream failed: %v", src.Err())
	}
	// Two forward jumps, MaxEdges 1: each jump terminates a path.
	if len(tuples) != 2 {
		t.Fatalf("got %d paths, want 2 (one per edge at MaxEdges=1)", len(tuples))
	}
}

func TestPathLoopRestartsStream(t *testing.T) {
	m := pathMachine(t)
	src, err := NewPathSource(m, PathConfig{Iterations: 1, Loop: true})
	if err != nil {
		t.Fatalf("NewPathSource: %v", err)
	}
	// One program run emits ~16 paths; ask for far more to force restarts.
	got := event.Collect(src, 100)
	if len(got) != 100 {
		t.Fatalf("looped stream delivered %d of 100 tuples (err %v)", len(got), src.Err())
	}
}
