// Package accum implements the fully-associative accumulator table at the
// heart of the paper's profiling architectures (§5.2).
//
// The accumulator holds the tuples the hash-table front end has promoted to
// candidate status and counts their further occurrences exactly. Its
// capacity is bounded by construction: at candidate threshold t% at most
// 100/t tuples can cross the threshold in one interval, so a 100/t-entry
// table can never overflow with real candidates (§5.1) — no replacement
// machinery is needed for correctness, only for the retaining optimization.
//
// Entries carry two hardware flags:
//
//   - non-replaceable: set on promotion; the entry may not be evicted for
//     the rest of the interval.
//   - retained (replaceable): set at an interval boundary under the
//     retaining optimization (§5.4.1) for entries that finished above the
//     threshold. Retained entries restart counting from zero, may be evicted
//     by new promotions, and become non-replaceable again the moment they
//     re-cross the threshold.
//
// # Data layout
//
// The table is a flat, open-addressed struct-of-arrays store: tuples,
// counts, insertion sequence numbers and flag bytes live in parallel
// slices sized at construction, probed linearly from a mixed hash of the
// tuple. The per-event Inc is a probe over contiguous memory with no
// pointer chasing, Insert never allocates, and deletion uses backward
// shifting so no tombstones accumulate — the software analog of the small
// fully-associative CAM the paper builds, where every lookup touches a
// fixed block of silicon and nothing is heap-managed. Eviction scans the
// whole (tiny) table, like the hardware's parallel compare.
package accum

import (
	"fmt"
	"math/bits"
	"sort"

	"hwprof/internal/event"
)

// meta flag bits.
const (
	occupied    = 1 << 0
	replaceable = 1 << 1
)

// Table is a bounded, fully-associative accumulator table.
type Table struct {
	capacity  int
	threshold uint64
	seq       uint64 // last insertion sequence number handed out
	live      int    // occupied slots
	mask      uint32 // len(slices) - 1; power-of-two slot count

	// Parallel slot arrays (struct-of-arrays): the per-event probe loop
	// touches meta and tuples only, counts on a hit.
	tuples []event.Tuple
	counts []uint64
	seqs   []uint64
	meta   []uint8

	// EndInterval scratch for the retaining rebuild, reused across
	// intervals so interval boundaries allocate nothing.
	keepTuples []event.Tuple
	keepSeqs   []uint64
}

// New returns an accumulator with the given entry capacity and candidate
// threshold (the occurrence count at which a tuple counts as a candidate).
func New(capacity int, threshold uint64) (*Table, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("accum: capacity %d must be positive", capacity)
	}
	if threshold == 0 {
		return nil, fmt.Errorf("accum: threshold must be positive")
	}
	// Slot count: power of two at least twice the capacity, so the load
	// factor never exceeds 1/2 and linear probe chains stay short.
	slots := 1 << bits.Len(uint(2*capacity-1))
	if slots < 8 {
		slots = 8
	}
	return &Table{
		capacity:   capacity,
		threshold:  threshold,
		mask:       uint32(slots - 1),
		tuples:     make([]event.Tuple, slots),
		counts:     make([]uint64, slots),
		seqs:       make([]uint64, slots),
		meta:       make([]uint8, slots),
		keepTuples: make([]event.Tuple, 0, capacity),
		keepSeqs:   make([]uint64, 0, capacity),
	}, nil
}

// slotHash mixes a tuple into its home slot. Murmur3-style finalizer over
// both members; independent of the profilers' byte-table hash functions.
func slotHash(tp event.Tuple) uint32 {
	x := tp.A ^ (tp.B * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}

// slot probes for tp: (slot index, true) when resident, else (first free
// slot on tp's probe path, false). Termination is guaranteed by the ≤ 1/2
// load factor.
func (t *Table) slot(tp event.Tuple) (uint32, bool) {
	i := slotHash(tp) & t.mask
	for t.meta[i]&occupied != 0 {
		if t.tuples[i] == tp {
			return i, true
		}
		i = (i + 1) & t.mask
	}
	return i, false
}

// Len returns the number of occupied entries.
func (t *Table) Len() int { return t.live }

// Contains reports whether tp currently has an entry.
func (t *Table) Contains(tp event.Tuple) bool {
	_, ok := t.slot(tp)
	return ok
}

// Count returns the current count for tp and whether tp is present.
func (t *Table) Count(tp event.Tuple) (uint64, bool) {
	i, ok := t.slot(tp)
	if !ok {
		return 0, false
	}
	return t.counts[i], true
}

// Inc counts one occurrence of a resident tuple. A retained (replaceable)
// entry that re-crosses the threshold becomes non-replaceable for the rest
// of the interval, exactly as in §5.4.1. Inc reports whether the tuple was
// resident.
func (t *Table) Inc(tp event.Tuple) bool {
	i, ok := t.slot(tp)
	if !ok {
		return false
	}
	t.incSlot(i)
	return true
}

// Window is the most events one Partition call splits.
const Window = 64

// Partition probes every tuple of win, which holds at most Window events,
// without mutating anything and splits the window, in event order, into the
// slots of its resident tuples and the offsets in win of the others, the
// hash-path events. It writes the nres resident slots to the front of slots
// and the len(win)-nres hash-path offsets to the front of miss, and returns
// nres. The slots stay valid until the next Insert or EndInterval (an
// Insert may backward-shift entries), which lets a staged batch pipeline
// defer the residents' IncSlots.
//
// The probe does not branch on its result. The home slot's occupancy and
// the tuple compare become 0/1 values; every tuple is written to both lists
// and only its own list's cursor advances. At offset w the two cursors sum
// to w, so neither list needs more than Window entries. Only a home slot
// held by another tuple walks the probe chain.
func (t *Table) Partition(win []event.Tuple, slots, miss *[Window]uint32) (nres int) {
	if len(win) > Window {
		panic("accum: Partition window longer than Window")
	}
	// The loop reads the table's fields through t: copied into locals,
	// they would take registers the hash needs, and spill.
	r := 0
	for w, tp := range win {
		i := slotHash(tp) & t.mask
		held := t.tuples[i]
		d := (held.A ^ tp.A) | (held.B ^ tp.B)
		occ := uint32(t.meta[i] & occupied)
		hit := occ &^ uint32((d|-d)>>63) // occupied and equal
		if occ != hit {
			i, hit = t.walk(tp)
		}
		// r <= w < Window, so the masks only spare the bounds checks.
		slots[r&(Window-1)] = i
		miss[(w-r)&(Window-1)] = uint32(w)
		r += int(hit)
	}
	return r
}

// walk is Partition's chain walk through slot: (slot, 1) when tp is
// resident, else (its first free slot, 0). Kept out of line, so the rare
// walk costs Partition's loop no registers.
//
//go:noinline
func (t *Table) walk(tp event.Tuple) (uint32, uint32) {
	if i, ok := t.slot(tp); ok {
		return i, 1
	}
	return 0, 0
}

// IncSlots applies Inc's count-and-flag update to each slot of res, slots
// that Partition wrote with no Insert or EndInterval since.
// Increments commute, so the order of res does not matter.
func (t *Table) IncSlots(res []uint32) {
	for _, i := range res {
		t.incSlot(i)
	}
}

// incSlot counts one occurrence at slot i. A retained (replaceable) entry
// that reaches the threshold becomes non-replaceable (§5.4.1).
func (t *Table) incSlot(i uint32) {
	c := t.counts[i] + 1
	t.counts[i] = c
	if t.meta[i]&replaceable != 0 && c >= t.threshold {
		t.meta[i] &^= replaceable
	}
}

// Insert promotes tp into the table with the given initial count (the hash
// counter value at promotion). Allocation prefers empty entries, then
// evicts the replaceable entry with the smallest count (oldest first on
// ties). Insert fails — and the table is unchanged — when every entry is
// occupied and non-replaceable. Inserting a tuple that is already resident
// is a no-op reported as success. Insert never heap-allocates.
func (t *Table) Insert(tp event.Tuple, initial uint64) bool {
	i, ok := t.slot(tp)
	if ok {
		return true
	}
	if t.live >= t.capacity {
		v, ok := t.victim()
		if !ok {
			return false
		}
		t.remove(v)
		// The backward shift may have reshaped tp's probe chain;
		// re-probe for the free slot.
		i, _ = t.slot(tp)
	}
	t.seq++
	t.tuples[i] = tp
	t.counts[i] = initial
	t.seqs[i] = t.seq
	m := uint8(occupied)
	if initial < t.threshold {
		m |= replaceable
	}
	t.meta[i] = m
	t.live++
	return true
}

// victim selects the replaceable entry with the smallest count, breaking
// ties by age (smaller seq first) — a full scan, like the hardware's
// parallel compare across its handful of entries. ok is false when nothing
// is replaceable.
func (t *Table) victim() (idx uint32, ok bool) {
	var (
		bestCount uint64
		bestSeq   uint64
	)
	for i := range t.meta {
		if t.meta[i]&(occupied|replaceable) != occupied|replaceable {
			continue
		}
		c, s := t.counts[i], t.seqs[i]
		if !ok || c < bestCount || (c == bestCount && s < bestSeq) {
			idx, bestCount, bestSeq, ok = uint32(i), c, s, true
		}
	}
	return idx, ok
}

// remove deletes the entry at slot i by backward shifting: entries after
// the hole whose probe chain passes through it are moved back, so the
// table never carries tombstones and probe chains stay minimal.
func (t *Table) remove(i uint32) {
	t.live--
	mask := t.mask
	j := i
	for {
		t.meta[i] = 0
		for {
			j = (j + 1) & mask
			if t.meta[j]&occupied == 0 {
				return
			}
			// The entry at j (home slot h) may fill hole i only if i
			// lies on its probe path, i.e. cyclically within [h, j).
			h := slotHash(t.tuples[j]) & mask
			if (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		t.tuples[i] = t.tuples[j]
		t.counts[i] = t.counts[j]
		t.seqs[i] = t.seqs[j]
		t.meta[i] = t.meta[j]
		i = j
	}
}

// SnapshotInto writes the current per-tuple counts into dst and returns
// it, allocating a map only when dst is nil; the map is the caller's to
// keep across EndInterval. dst must be empty — the drivers recycle
// interval maps through clear() and hand them back here, making
// steady-state interval boundaries allocation-free.
func (t *Table) SnapshotInto(dst map[event.Tuple]uint64) map[event.Tuple]uint64 {
	if dst == nil {
		dst = make(map[event.Tuple]uint64, t.live)
	}
	for i := range t.meta {
		if t.meta[i]&occupied != 0 {
			dst[t.tuples[i]] = t.counts[i]
		}
	}
	return dst
}

// Candidates returns the tuples whose counts reached the threshold, sorted
// by descending count (ties by tuple for determinism).
func (t *Table) Candidates() []event.Tuple {
	var out []event.Tuple
	counts := make(map[event.Tuple]uint64, t.live)
	for i := range t.meta {
		if t.meta[i]&occupied != 0 && t.counts[i] >= t.threshold {
			out = append(out, t.tuples[i])
			counts[t.tuples[i]] = t.counts[i]
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := counts[out[i]], counts[out[j]]
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

// EndInterval applies the interval-boundary policy and prepares the table
// for the next interval. It never allocates: the retaining rebuild runs
// through scratch buffers owned by the table.
//
// With retain == false the table is simply flushed. With retain == true
// (§5.4.1) entries that finished below the threshold are flushed, and
// entries at or above it are kept with their counters reset to zero and
// marked replaceable.
func (t *Table) EndInterval(retain bool) {
	if !retain || t.live == 0 {
		t.clearAll()
		return
	}
	// Collect the survivors, then rebuild the probe structure from
	// scratch — deleting the sub-threshold majority in place would
	// backward-shift most of the table anyway. Sequence numbers are
	// preserved: retained entries keep their age for eviction tie-breaks.
	keepT, keepS := t.keepTuples[:0], t.keepSeqs[:0]
	for i := range t.meta {
		if t.meta[i]&occupied != 0 && t.counts[i] >= t.threshold {
			keepT = append(keepT, t.tuples[i])
			keepS = append(keepS, t.seqs[i])
		}
	}
	t.clearAll()
	for k, tp := range keepT {
		i, _ := t.slot(tp)
		t.tuples[i] = tp
		t.counts[i] = 0
		t.seqs[i] = keepS[k]
		t.meta[i] = occupied | replaceable
		t.live++
	}
	t.keepTuples, t.keepSeqs = keepT, keepS
}

// clearAll empties the table. Only the meta bytes need zeroing; the other
// arrays are dead until their slots are re-occupied.
func (t *Table) clearAll() {
	clear(t.meta)
	t.live = 0
}
