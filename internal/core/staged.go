package core

// The staged batch pipeline (DESIGN.md §14). The pipeline splits the work
// of a lookahead window into passes:
//
//  1. Stage (pure): accum.Table.Partition splits the window, in event
//     order, into the slots of its resident events and the offsets of its
//     hash-path events without branching on residency, and hashfn.Fused
//     evaluates the packed index word of each hash-path event only.
//     Nothing is mutated, so staged results are discardable.
//  2. Commit (ordered): walk the hash-path events in event order against
//     a counter.Hot view, doing their n counter updates with all Set
//     invariants held in registers. The residents' deferred increments
//     are applied in one batch: those staged before a hash-path event go
//     ahead of its Insert attempt, the rest at the window's end.
//
// Why deferring the residents is exact: a resident increment touches only
// accumulator counts and flags, a hash-path update touches only counter
// words, and within a window Insert is the only code that reads the
// former (its victim choice). So every Insert attempt sees exactly the
// increments of the residents before it, as it would in event order.
//
// Staleness is the correctness crux: staged residency is valid only while
// the accumulator's membership is unchanged, and membership changes exactly
// at a successful promotion (an Insert adds the tuple and may evict a
// victim, and its backward-shift delete may move slots). The commit loop
// therefore stops at the first successful Insert and reports how many
// events it consumed; the residents staged after it are not applied, and
// the driver restages the rest of the window. Staging is pure, so a
// restage costs only recomputed probes and hashes — there is never
// anything to roll back. Promotions are bounded per interval by the
// accumulator's own capacity argument (§5.1), so restages are rare and the
// steady state runs whole windows.
//
// Conservative update (C1) is inherently order-sensitive across events
// that share a counter (see TestC1OrderSensitivity and DESIGN.md §14), so
// the C1 commit stays in event order.

import (
	"hwprof/internal/accum"
	"hwprof/internal/counter"
	"hwprof/internal/event"
	"hwprof/internal/hashfn"
)

// stagedWindow is the lookahead window length: how far the stage pass runs
// ahead of the commit cursor. Long enough that the stage pass's independent
// loads overlap, short enough that a restage after a promotion stays cheap.
// It is the longest window accum.Table.Partition takes.
const stagedWindow = accum.Window

// stagedScratch is the per-profiler scratch of the staged pipeline: fixed
// arrays inside the MultiHash, so the pipeline never allocates or grows.
type stagedScratch struct {
	slots  [stagedWindow]uint32 // Partition: resident slots
	miss   [stagedWindow]uint32 // Partition: hash-path offsets
	packed [stagedWindow]uint64 // fused index word per hash-path event

	// nres counts the staged window's residents, applied those of them
	// whose increments have been applied.
	nres, applied int
}

// stage partitions the window into its resident and hash-path events and
// evaluates the fused index word of each hash-path event. Pure: the
// accumulator and counters are not touched, so a stale window can simply be
// staged again.
func (m *MultiHash) stage(win []event.Tuple) []uint32 {
	sc := &m.sc
	sc.nres = m.acc.Partition(win, &sc.slots, &sc.miss)
	sc.applied = 0
	hp := sc.miss[:len(win)-sc.nres]
	fu := m.fused
	for k, w := range hp {
		sc.packed[k&(stagedWindow-1)] = fu.Packed(win[w]) // k < stagedWindow
	}
	return hp
}

// applyResidents applies the deferred IncSlots of the window's first n
// resident events that are not applied yet. A commit loop calls it with the
// residents staged before a hash-path event ahead of that event's Insert
// attempt, whose victim choice reads the counts and flags IncSlots changes,
// and with all of them at the window's end.
func (m *MultiHash) applyResidents(n int) {
	sc := &m.sc
	m.acc.IncSlots(sc.slots[sc.applied:n])
	sc.applied = n
}

// observeStaged drives the staged pipeline for shielded configurations:
// stage a window, commit it in event order, restage from the first
// promotion. The shapes a benchmark or the CI gate runs keep unrolled
// commits: C1 and C0 on the paper's 4 tables, and C0 on the single-hash
// architecture's one. Every other shape takes commitN.
func (m *MultiHash) observeStaged(batch []event.Tuple, hot counter.Hot) {
	n, c1 := m.fused.Len(), m.cfg.ConservativeUpdate
	for lo := 0; lo < len(batch); {
		win := batch[lo:min(lo+stagedWindow, len(batch))]
		hp := m.stage(win)
		switch {
		case n == 4 && c1:
			lo += m.commitConservative4(win, hp, hot)
		case n == 4:
			lo += m.commitPlain4(win, hp, hot)
		case n == 1 && !c1:
			lo += m.commitPlain1(win, hp, hot)
		default:
			lo += m.commitN(win, hp, hot, n, c1)
		}
	}
}

// commitPlain1 is the single-hash architecture's commit: one counter, no
// minimum to form.
func (m *MultiHash) commitPlain1(win []event.Tuple, hp []uint32, hot counter.Hot) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed := sc.packed[:len(hp)]
	for k, w := range hp {
		j := packed[k] & hashfn.FusedMask
		var v uint32
		if wd := words[j]; wd&^cmask == etag {
			v = wd & cmask
		}
		if v < max {
			v++
		}
		words[j] = etag | v
		if v < thresh {
			continue
		}
		m.applyResidents(int(w) - k)
		if acc.Insert(win[w], uint64(v)) {
			if reset {
				words[j] = etag
			}
			return int(w) + 1
		}
	}
	m.applyResidents(sc.nres)
	return len(win)
}

// commitConservative4 commits a staged window under conservative update
// with the paper's 4-table shape, fully unrolled. It returns the number of
// events consumed: the whole window, or up to and including the first
// successful promotion (after which the staged suffix is stale).
//
// Per hash-path event: four counter loads, a branch-light 4-way minimum,
// and four unconditional stores — the same dataflow as the ordered
// reference, minus the redundant re-reads, the per-call invariant reloads
// and the data-dependent store branches. Each store writes the updated
// word where the counter sat at the minimum and the word as loaded
// elsewhere. That is exact only because the four indexes lie in disjoint
// tables: no store can overwrite another's update.
func (m *MultiHash) commitConservative4(win []event.Tuple, hp []uint32, hot counter.Hot) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed := sc.packed[:len(hp)]
	for k, w := range hp {
		p := packed[k]
		j0 := int(p & hashfn.FusedMask)
		j1 := size + int((p>>16)&hashfn.FusedMask)
		j2 := 2*size + int((p>>32)&hashfn.FusedMask)
		j3 := 3*size + int(p>>48)
		w0, w1, w2, w3 := words[j0], words[j1], words[j2], words[j3]
		var v0, v1, v2, v3 uint32
		if w0&^cmask == etag {
			v0 = w0 & cmask
		}
		if w1&^cmask == etag {
			v1 = w1 & cmask
		}
		if w2&^cmask == etag {
			v2 = w2 & cmask
		}
		if w3&^cmask == etag {
			v3 = w3 & cmask
		}
		min := v0
		if v1 < min {
			min = v1
		}
		if v2 < min {
			min = v2
		}
		if v3 < min {
			min = v3
		}
		// Every counter at the pre-update minimum advances by one
		// (saturation aside), so the updated minimum is min+1.
		nv := min
		if nv < max {
			nv++
		}
		up := etag | nv
		if v0 == min {
			w0 = up
		}
		if v1 == min {
			w1 = up
		}
		if v2 == min {
			w2 = up
		}
		if v3 == min {
			w3 = up
		}
		words[j0], words[j1], words[j2], words[j3] = w0, w1, w2, w3
		if nv < thresh {
			continue
		}
		m.applyResidents(int(w) - k)
		if acc.Insert(win[w], uint64(nv)) {
			if reset {
				words[j0] = etag
				words[j1] = etag
				words[j2] = etag
				words[j3] = etag
			}
			return int(w) + 1 // membership changed: staged suffix is stale
		}
	}
	m.applyResidents(sc.nres)
	return len(win)
}

// commitPlain4 commits a staged window under plain (C0) update with the
// 4-table shape: every counter increments and the promotion minimum falls
// out of the increment pass.
func (m *MultiHash) commitPlain4(win []event.Tuple, hp []uint32, hot counter.Hot) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed := sc.packed[:len(hp)]
	for k, w := range hp {
		p := packed[k]
		j0 := int(p & hashfn.FusedMask)
		j1 := size + int((p>>16)&hashfn.FusedMask)
		j2 := 2*size + int((p>>32)&hashfn.FusedMask)
		j3 := 3*size + int(p>>48)
		w0, w1, w2, w3 := words[j0], words[j1], words[j2], words[j3]
		var v0, v1, v2, v3 uint32
		if w0&^cmask == etag {
			v0 = w0 & cmask
		}
		if w1&^cmask == etag {
			v1 = w1 & cmask
		}
		if w2&^cmask == etag {
			v2 = w2 & cmask
		}
		if w3&^cmask == etag {
			v3 = w3 & cmask
		}
		if v0 < max {
			v0++
		}
		if v1 < max {
			v1++
		}
		if v2 < max {
			v2++
		}
		if v3 < max {
			v3++
		}
		words[j0] = etag | v0
		words[j1] = etag | v1
		words[j2] = etag | v2
		words[j3] = etag | v3
		min := v0
		if v1 < min {
			min = v1
		}
		if v2 < min {
			min = v2
		}
		if v3 < min {
			min = v3
		}
		if min < thresh {
			continue
		}
		m.applyResidents(int(w) - k)
		if acc.Insert(win[w], uint64(min)) {
			if reset {
				words[j0] = etag
				words[j1] = etag
				words[j2] = etag
				words[j3] = etag
			}
			return int(w) + 1
		}
	}
	m.applyResidents(sc.nres)
	return len(win)
}

// commitN commits a staged window for any fusable shape (1–4 tables)
// under either update rule: it reads the n counters and their minimum,
// then advances every counter (C0) or only those at the minimum (C1),
// saturating. Either way the updated minimum, the value a promotion
// starts from, is the old minimum plus one, saturated.
func (m *MultiHash) commitN(win []event.Tuple, hp []uint32, hot counter.Hot, n int, c1 bool) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed := sc.packed[:len(hp)]
	var js [4]int
	var vs [4]uint32
	for k, w := range hp {
		p := packed[k]
		min := ^uint32(0)
		base := 0
		for t := 0; t < n; t++ {
			j := base + int(p&hashfn.FusedMask)
			js[t] = j
			var v uint32
			if wd := words[j]; wd&^cmask == etag {
				v = wd & cmask
			}
			vs[t] = v
			if v < min {
				min = v
			}
			p >>= 16
			base += size
		}
		for t := 0; t < n; t++ {
			v := vs[t]
			if c1 && v != min {
				continue
			}
			if v < max {
				v++
			}
			words[js[t]] = etag | v
		}
		nv := min
		if nv < max {
			nv++
		}
		if nv < thresh {
			continue
		}
		m.applyResidents(int(w) - k)
		if acc.Insert(win[w], uint64(nv)) {
			if reset {
				for t := 0; t < n; t++ {
					words[js[t]] = etag
				}
			}
			return int(w) + 1
		}
	}
	m.applyResidents(sc.nres)
	return len(win)
}
