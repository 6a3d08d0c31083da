package core

// Differential test: the data-oriented hot path (flat open-addressed
// accumulator, packed epoch-flushed counter set, fused hash evaluation,
// specialized ObserveBatch loops) must produce bit-identical interval
// profiles to the original implementation — a map-based accumulator,
// one []uint64 counter bank per table, and per-function hash evaluation —
// for every policy combination. The reference below is a literal
// transcription of that seed implementation.

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"hwprof/internal/event"
	"hwprof/internal/hashfn"
	"hwprof/internal/xrand"
)

// refEntry is one row of the reference accumulator.
type refEntry struct {
	tuple       event.Tuple
	count       uint64
	replaceable bool
	seq         uint64
}

// refAccum is the seed's map-based accumulator table.
type refAccum struct {
	capacity  int
	threshold uint64
	entries   map[event.Tuple]*refEntry
	seq       uint64
}

func newRefAccum(capacity int, threshold uint64) *refAccum {
	return &refAccum{
		capacity:  capacity,
		threshold: threshold,
		entries:   make(map[event.Tuple]*refEntry, capacity),
	}
}

func (t *refAccum) inc(tp event.Tuple) bool {
	e, ok := t.entries[tp]
	if !ok {
		return false
	}
	e.count++
	if e.replaceable && e.count >= t.threshold {
		e.replaceable = false
	}
	return true
}

func (t *refAccum) insert(tp event.Tuple, initial uint64) bool {
	if _, ok := t.entries[tp]; ok {
		return true
	}
	if len(t.entries) >= t.capacity {
		victim := t.victim()
		if victim == nil {
			return false
		}
		delete(t.entries, victim.tuple)
	}
	t.seq++
	t.entries[tp] = &refEntry{
		tuple:       tp,
		count:       initial,
		replaceable: initial < t.threshold,
		seq:         t.seq,
	}
	return true
}

func (t *refAccum) victim() *refEntry {
	var v *refEntry
	for _, e := range t.entries {
		if !e.replaceable {
			continue
		}
		if v == nil || e.count < v.count || (e.count == v.count && e.seq < v.seq) {
			v = e
		}
	}
	return v
}

func (t *refAccum) snapshot() map[event.Tuple]uint64 {
	out := make(map[event.Tuple]uint64, len(t.entries))
	for tp, e := range t.entries {
		out[tp] = e.count
	}
	return out
}

func (t *refAccum) candidates() []event.Tuple {
	var out []event.Tuple
	for tp, e := range t.entries {
		if e.count >= t.threshold {
			out = append(out, tp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := t.entries[out[i]].count, t.entries[out[j]].count
		if ci != cj {
			return ci > cj
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func (t *refAccum) endInterval(retain bool) {
	if !retain {
		clear(t.entries)
		return
	}
	for tp, e := range t.entries {
		if e.count < t.threshold {
			delete(t.entries, tp)
			continue
		}
		e.count = 0
		e.replaceable = true
	}
}

// refBank is the seed's []uint64 saturating counter bank.
type refBank struct {
	counts []uint64
	max    uint64
}

func newRefBank(size int, width uint) *refBank {
	return &refBank{counts: make([]uint64, size), max: 1<<width - 1}
}

func (b *refBank) get(i uint32) uint64 { return b.counts[i] }

func (b *refBank) inc(i uint32) {
	if b.counts[i] < b.max {
		b.counts[i]++
	}
}

func (b *refBank) reset(i uint32) { b.counts[i] = 0 }

func (b *refBank) flush() { clear(b.counts) }

// refMultiHash is the seed MultiHash: per-event Observe with a map
// accumulator, per-table banks, and an Indexes scratch slice.
type refMultiHash struct {
	cfg    Config
	thresh uint64
	fam    hashfn.Indexer
	banks  []*refBank
	acc    *refAccum
	idxBuf []uint32
}

func newRefMultiHash(t *testing.T, cfg Config) *refMultiHash {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config invalid: %v", err)
	}
	indexBits := uint(bits.TrailingZeros(uint(cfg.PerTableEntries())))
	var fam hashfn.Indexer
	var err error
	if cfg.WeakHash {
		fam, err = hashfn.NewWeakFamily(cfg.NumTables, indexBits)
	} else {
		fam, err = hashfn.NewFamily(cfg.Seed, cfg.NumTables, indexBits)
	}
	if err != nil {
		t.Fatalf("building hash family: %v", err)
	}
	banks := make([]*refBank, cfg.NumTables)
	for i := range banks {
		banks[i] = newRefBank(cfg.PerTableEntries(), cfg.CounterWidth)
	}
	return &refMultiHash{
		cfg:    cfg,
		thresh: cfg.ThresholdCount(),
		fam:    fam,
		banks:  banks,
		acc:    newRefAccum(cfg.EffectiveAccumCapacity(), cfg.ThresholdCount()),
		idxBuf: make([]uint32, 0, cfg.NumTables),
	}
}

func (m *refMultiHash) observe(tp event.Tuple) {
	resident := m.acc.inc(tp)
	if resident && !m.cfg.NoShield {
		return
	}

	idxs := m.fam.Indexes(tp, m.idxBuf[:0])
	m.idxBuf = idxs

	if m.cfg.ConservativeUpdate {
		min := m.banks[0].get(idxs[0])
		for i := 1; i < len(idxs); i++ {
			if v := m.banks[i].get(idxs[i]); v < min {
				min = v
			}
		}
		for i, idx := range idxs {
			if m.banks[i].get(idx) == min {
				m.banks[i].inc(idx)
			}
		}
	} else {
		for i, idx := range idxs {
			m.banks[i].inc(idx)
		}
	}

	if resident {
		return
	}

	min := m.banks[0].get(idxs[0])
	for i := 1; i < len(idxs); i++ {
		if v := m.banks[i].get(idxs[i]); v < min {
			min = v
		}
	}
	if min < m.thresh {
		return
	}
	if m.acc.insert(tp, min) && m.cfg.ResetOnPromote {
		for i, idx := range idxs {
			m.banks[i].reset(idx)
		}
	}
}

func (m *refMultiHash) endInterval() map[event.Tuple]uint64 {
	snap := m.acc.snapshot()
	m.acc.endInterval(m.cfg.Retain)
	for _, b := range m.banks {
		b.flush()
	}
	return snap
}

// diffWorkload generates a deterministic skewed tuple stream: a small hot
// set observed often plus a long randomized tail, which exercises
// promotion, shielding, eviction, retention, and counter saturation.
func diffWorkload(seed uint64, n int) []event.Tuple {
	r := xrand.New(seed)
	hot := make([]event.Tuple, 24)
	for i := range hot {
		hot[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
	}
	out := make([]event.Tuple, n)
	for i := range out {
		switch r.Uint64() % 10 {
		case 0, 1, 2: // cold tail: mostly-unique tuples
			out[i] = event.Tuple{A: r.Uint64(), B: r.Uint64()}
		case 3, 4: // warm band: medium-frequency tuples
			out[i] = event.Tuple{A: r.Uint64() % 512, B: 7}
		default: // hot set, triangularly skewed
			a, b := r.Uint64()%uint64(len(hot)), r.Uint64()%uint64(len(hot))
			if b < a {
				a = b
			}
			out[i] = hot[a]
		}
	}
	return out
}

func equalProfiles(t *testing.T, interval int, want, got map[event.Tuple]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("interval %d: profile size %d, want %d", interval, len(got), len(want))
	}
	for tp, wc := range want {
		if gc, ok := got[tp]; !ok || gc != wc {
			t.Fatalf("interval %d: tuple %v count %d (present %v), want %d",
				interval, tp, gc, ok, wc)
		}
	}
}

// TestDifferentialAllPolicyCombos runs randomized workloads through the
// optimized MultiHash and the seed reference for every combination of
// shielding, conservative update, reset-on-promote, and retaining, in the
// multi-table (fused), single-table, weak-hash and wide-counter shapes,
// and demands bit-identical interval profiles and candidate lists.
func TestDifferentialAllPolicyCombos(t *testing.T) {
	shapes := []struct {
		name      string
		numTables int
		weak      bool
		width     uint
		entries   int
	}{
		{"multi4", 4, false, 8, 256}, // low width forces saturation
		{"single", 1, false, 8, 256},
		{"weak4", 4, true, 8, 256}, // WeakFamily defeats fusing: exercises the generic path
		// Counters too wide to pack take the generic loop even though
		// the family fuses.
		{"multi4_w32", 4, false, 32, 256},
		{"single_w64", 1, false, 64, 256},
		// The 2- and 3-table shapes take the staged pipeline's generic
		// commit under both update rules; per-table sizes are powers of
		// two.
		{"multi2", 2, false, 8, 256},
		{"multi3", 3, false, 8, 192},
	}
	const intervalLen = 2000
	for _, sh := range shapes {
		for mask := 0; mask < 16; mask++ {
			cfg := Config{
				IntervalLength:     intervalLen,
				ThresholdPercent:   1,
				TotalEntries:       sh.entries, // small tables force aliasing and eviction
				NumTables:          sh.numTables,
				CounterWidth:       sh.width,
				ConservativeUpdate: mask&1 != 0,
				ResetOnPromote:     mask&2 != 0,
				Retain:             mask&4 != 0,
				NoShield:           mask&8 != 0,
				WeakHash:           sh.weak,
				Seed:               0xD1FF + uint64(mask),
			}
			name := fmt.Sprintf("%s/C%d_R%d_P%d_S%d",
				sh.name, mask&1, (mask>>1)&1, (mask>>2)&1, 1-(mask>>3)&1)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opt, err := NewMultiHash(cfg)
				if err != nil {
					t.Fatalf("NewMultiHash: %v", err)
				}
				ref := newRefMultiHash(t, cfg)
				stream := diffWorkload(0xBEEF^uint64(mask), 5*intervalLen)
				for start := 0; start+intervalLen <= len(stream); start += intervalLen {
					batch := stream[start : start+intervalLen]
					opt.ObserveBatch(batch)
					for _, tp := range batch {
						ref.observe(tp)
					}
					wantCand := ref.acc.candidates()
					gotCand := opt.Candidates()
					if len(wantCand) != len(gotCand) {
						t.Fatalf("interval %d: %d candidates, want %d",
							start/intervalLen, len(gotCand), len(wantCand))
					}
					for i := range wantCand {
						if wantCand[i] != gotCand[i] {
							t.Fatalf("interval %d: candidate %d = %v, want %v",
								start/intervalLen, i, gotCand[i], wantCand[i])
						}
					}
					equalProfiles(t, start/intervalLen, ref.endInterval(), opt.EndInterval())
				}
			})
		}
	}
}

// TestDifferentialPerEventVsBatch checks that Observe and ObserveBatch are
// interchangeable on the optimized implementation (the specialized batch
// loops must not diverge from the per-event path).
func TestDifferentialPerEventVsBatch(t *testing.T) {
	cfg := Config{
		IntervalLength:     2000,
		ThresholdPercent:   1,
		TotalEntries:       256,
		NumTables:          4,
		CounterWidth:       8,
		ConservativeUpdate: true,
		Retain:             true,
		Seed:               42,
	}
	a, err := NewMultiHash(cfg)
	if err != nil {
		t.Fatalf("NewMultiHash: %v", err)
	}
	b, err := NewMultiHash(cfg)
	if err != nil {
		t.Fatalf("NewMultiHash: %v", err)
	}
	stream := diffWorkload(0xAB, 6000)
	for start := 0; start+2000 <= len(stream); start += 2000 {
		batch := stream[start : start+2000]
		a.ObserveBatch(batch)
		for _, tp := range batch {
			b.Observe(tp)
		}
		equalProfiles(t, start/2000, b.EndInterval(), a.EndInterval())
	}
}

// TestDifferentialReusedProfiles checks that recycling interval maps
// through Recycle changes nothing about the reported profiles.
func TestDifferentialReusedProfiles(t *testing.T) {
	cfg := Config{
		IntervalLength:   1000,
		ThresholdPercent: 1,
		TotalEntries:     256,
		NumTables:        4,
		CounterWidth:     8,
		Retain:           true,
		Seed:             7,
	}
	fresh, err := NewMultiHash(cfg)
	if err != nil {
		t.Fatalf("NewMultiHash: %v", err)
	}
	reused, err := NewMultiHash(cfg)
	if err != nil {
		t.Fatalf("NewMultiHash: %v", err)
	}
	stream := diffWorkload(0xCD, 8000)
	for start := 0; start+1000 <= len(stream); start += 1000 {
		batch := stream[start : start+1000]
		fresh.ObserveBatch(batch)
		reused.ObserveBatch(batch)
		want := fresh.EndInterval()
		got := reused.EndInterval()
		equalProfiles(t, start/1000, want, got)
		reused.Recycle(got) // invalidates got; next interval reuses it
	}
}
