package core

// The staged batch pipeline (DESIGN.md §14). ObserveBatch's fused loops
// used to walk events one at a time: an accumulator probe, sixteen
// dependent hash-table loads, then n counter read-modify-writes, all
// serialized behind a poorly-predictable resident/hash-path branch, with
// every counter access re-loading the Set's epoch/width/mask through the
// pointer receiver. The staged pipeline splits the same work into passes
// over a lookahead window:
//
//  1. Stage (pure): probe accumulator residency and evaluate hashfn.Fused
//     for every event of the window into recycled scratch (slot-or-flag +
//     packed index word per event). Nothing is mutated, so staged results
//     are discardable.
//  2. Commit (ordered): walk the window in event order against a
//     counter.Hot view — resident events apply their deferred exact-count
//     increment via the staged slot, hash-path events do their n counter
//     updates with all Set invariants held in registers.
//
// Staleness is the correctness crux: staged residency is valid only while
// the accumulator's membership is unchanged, and membership changes exactly
// at a successful promotion (an Insert adds the tuple and may evict a
// victim, and its backward-shift delete may move slots). The commit loop
// therefore stops at the first successful Insert and reports how many
// events it consumed; the driver restages the rest of the window. Staging
// is pure, so a restage costs only recomputed probes and hashes — there is
// never anything to roll back. Promotions are bounded per interval by the
// accumulator's own capacity argument (§5.1), so restages are rare and the
// steady state runs whole windows.
//
// Conservative update (C1) is inherently order-sensitive across events
// that share a counter (see TestC1OrderSensitivity and DESIGN.md §14), so
// the C1 commit stays in event order. The plain-update (C0) path is
// additionally eligible for the bank-bucketed two-sweep pipeline in
// banked.go when the counter set outgrows the cache.

import (
	"hwprof/internal/counter"
	"hwprof/internal/event"
	"hwprof/internal/hashfn"
)

const (
	// stagedWindow is the lookahead window length: how far the stage pass
	// runs ahead of the commit cursor. Long enough that the stage pass's
	// independent loads overlap, short enough that a restage after a
	// promotion stays cheap.
	stagedWindow = 64

	// stagedResident flags a staged slot word as "resident, slot in the
	// low bits". Accumulator slot counts are tiny (2×capacity), so the
	// top bit is always free.
	stagedResident = 1 << 31
)

// stagedScratch is the recycled per-profiler scratch of the staged
// pipeline. Everything is sized at construction (and by PrewarmBatch for
// the banked window), so the steady-state pipeline never allocates.
type stagedScratch struct {
	packed []uint64 // stage: fused index word per window event
	slots  []uint32 // stage: accumulator slot | stagedResident, or 0

	// Banked sweep scratch, allocated only when the counter geometry can
	// engage the banked path (see banked.go).
	pairs     []uint32 // scattered flat counter offsets, bank-bucketed
	pairEv    []uint32 // owning window-event index per scattered pair
	pairPre   []uint32 // pre-update counter word per pair, for rollback
	bankStart []int32  // per-bank segment cursors / prefix sums
	mins      []uint32 // per-event post-update minimum (sweep result)
}

// stage fills the scratch with the window's residency probes and fused
// index words. Pure: the accumulator and counters are not touched, so a
// stale window can simply be staged again.
func (m *MultiHash) stage(win []event.Tuple) {
	sc := &m.sc
	packed := sc.packed[:0]
	slots := sc.slots[:0]
	acc, fu := m.acc, m.fused
	for _, tp := range win {
		if s, ok := acc.Probe(tp); ok {
			slots = append(slots, s|stagedResident)
			packed = append(packed, 0)
			continue
		}
		slots = append(slots, 0)
		packed = append(packed, fu.Packed(tp))
	}
	sc.packed, sc.slots = packed, slots
}

// observeStagedConservative drives the staged pipeline for shielded C1
// configurations: stage a window, commit it in event order, restage from
// the first promotion.
func (m *MultiHash) observeStagedConservative(batch []event.Tuple, hot counter.Hot) {
	n := m.fused.Len()
	for lo := 0; lo < len(batch); {
		hi := lo + stagedWindow
		if hi > len(batch) {
			hi = len(batch)
		}
		win := batch[lo:hi]
		m.stage(win)
		if n == 4 {
			lo += m.commitConservative4(win, hot)
		} else {
			lo += m.commitConservativeN(win, hot, n)
		}
	}
}

// observeStagedPlain is the C0 counterpart.
func (m *MultiHash) observeStagedPlain(batch []event.Tuple, hot counter.Hot) {
	n := m.fused.Len()
	for lo := 0; lo < len(batch); {
		hi := lo + stagedWindow
		if hi > len(batch) {
			hi = len(batch)
		}
		win := batch[lo:hi]
		m.stage(win)
		switch n {
		case 4:
			lo += m.commitPlain4(win, hot)
		case 1:
			lo += m.commitPlain1(win, hot)
		default:
			lo += m.commitPlainN(win, hot, n)
		}
	}
}

// commitPlain1 is the single-hash architecture's commit: one counter, no
// minimum to form.
func (m *MultiHash) commitPlain1(win []event.Tuple, hot counter.Hot) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed, slots := sc.packed, sc.slots
	for w, tp := range win {
		s := slots[w]
		if s&stagedResident != 0 {
			acc.IncSlot(s &^ stagedResident)
			continue
		}
		j := packed[w] & hashfn.FusedMask
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
		if acc.Insert(tp, uint64(v)) {
			if reset {
				words[j] = etag
			}
			return w + 1
		}
	}
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
func (m *MultiHash) commitConservative4(win []event.Tuple, hot counter.Hot) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed, slots := sc.packed, sc.slots
	for w, tp := range win {
		s := slots[w]
		if s&stagedResident != 0 {
			acc.IncSlot(s &^ stagedResident)
			continue
		}
		p := packed[w]
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
		if acc.Insert(tp, uint64(nv)) {
			if reset {
				words[j0] = etag
				words[j1] = etag
				words[j2] = etag
				words[j3] = etag
			}
			return w + 1 // membership changed: staged suffix is stale
		}
	}
	return len(win)
}

// commitConservativeN is commitConservative4 for the other fusable shapes
// (1–3 tables).
func (m *MultiHash) commitConservativeN(win []event.Tuple, hot counter.Hot, n int) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed, slots := sc.packed, sc.slots
	var js [4]int
	var vs [4]uint32
	for w, tp := range win {
		s := slots[w]
		if s&stagedResident != 0 {
			acc.IncSlot(s &^ stagedResident)
			continue
		}
		p := packed[w]
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
		nv := min
		if nv < max {
			nv++
		}
		up := etag | nv
		for t := 0; t < n; t++ {
			if vs[t] == min {
				words[js[t]] = up
			}
		}
		if nv < thresh {
			continue
		}
		if acc.Insert(tp, uint64(nv)) {
			if reset {
				for t := 0; t < n; t++ {
					words[js[t]] = etag
				}
			}
			return w + 1
		}
	}
	return len(win)
}

// commitPlain4 commits a staged window under plain (C0) update with the
// 4-table shape: every counter increments and the promotion minimum falls
// out of the increment pass.
func (m *MultiHash) commitPlain4(win []event.Tuple, hot counter.Hot) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed, slots := sc.packed, sc.slots
	for w, tp := range win {
		s := slots[w]
		if s&stagedResident != 0 {
			acc.IncSlot(s &^ stagedResident)
			continue
		}
		p := packed[w]
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
		if acc.Insert(tp, uint64(min)) {
			if reset {
				words[j0] = etag
				words[j1] = etag
				words[j2] = etag
				words[j3] = etag
			}
			return w + 1
		}
	}
	return len(win)
}

// commitPlainN is commitPlain4 for the other fusable shapes (1–3 tables);
// with one table it is the single-hash architecture's hot loop.
func (m *MultiHash) commitPlainN(win []event.Tuple, hot counter.Hot, n int) int {
	sc := &m.sc
	acc := m.acc
	words, etag, cmask, max := hot.Words, hot.ETag, hot.CMask, hot.Max
	size := m.set.Size()
	thresh := uint32(m.thresh)
	reset := m.cfg.ResetOnPromote
	packed, slots := sc.packed, sc.slots
	var js [4]int
	for w, tp := range win {
		s := slots[w]
		if s&stagedResident != 0 {
			acc.IncSlot(s &^ stagedResident)
			continue
		}
		p := packed[w]
		min := ^uint32(0)
		base := 0
		for t := 0; t < n; t++ {
			j := base + int(p&hashfn.FusedMask)
			js[t] = j
			var v uint32
			if wd := words[j]; wd&^cmask == etag {
				v = wd & cmask
			}
			if v < max {
				v++
			}
			words[j] = etag | v
			if v < min {
				min = v
			}
			p >>= 16
			base += size
		}
		if min < thresh {
			continue
		}
		if acc.Insert(tp, uint64(min)) {
			if reset {
				for t := 0; t < n; t++ {
					words[js[t]] = etag
				}
			}
			return w + 1
		}
	}
	return len(win)
}
