package accum

import (
	"testing"

	"hwprof/internal/event"
)

// checkPartition partitions win and checks the result against per-tuple
// Contains and Count: the residents' slots and the hash-path offsets must
// come out in event order, and IncSlots on the resident slots must add
// exactly each resident tuple's occurrences in win to its count.
func checkPartition(t *testing.T, tbl *Table, win []event.Tuple) (nres int) {
	t.Helper()
	before := make(map[event.Tuple]uint64)
	want := make(map[event.Tuple]uint64)
	var wantHP []uint32
	for w, tp := range win {
		c, ok := tbl.Count(tp)
		if ok != tbl.Contains(tp) {
			t.Fatalf("Count and Contains disagree on %v", tp)
		}
		if !ok {
			wantHP = append(wantHP, uint32(w))
			continue
		}
		before[tp] = c
		want[tp]++
		nres++
	}
	var slots, miss [Window]uint32
	n := tbl.Partition(win, &slots, &miss)
	res, hp := slots[:n], miss[:len(win)-n]
	if len(res) != nres || len(hp) != len(wantHP) {
		t.Fatalf("Partition of %d events: %d resident, %d hash-path; want %d, %d",
			len(win), len(res), len(hp), nres, len(wantHP))
	}
	for k := range hp {
		if hp[k] != wantHP[k] {
			t.Fatalf("hash-path offset %d = %d, want %d (all %v, want %v)", k, hp[k], wantHP[k], hp, wantHP)
		}
	}
	tbl.IncSlots(res)
	for tp, n := range want {
		if c, _ := tbl.Count(tp); c != before[tp]+n {
			t.Fatalf("after IncSlots, Count(%v) = %d, want %d + %d", tp, c, before[tp], n)
		}
	}
	return nres
}

// homed returns n distinct tuples, not in skip, whose home slot in tbl is
// home.
func homed(tbl *Table, home uint32, n int, skip map[event.Tuple]bool) []event.Tuple {
	var out []event.Tuple
	for a := uint64(1); len(out) < n; a++ {
		tp := event.Tuple{A: a, B: 7}
		if slotHash(tp)&tbl.mask == home && !skip[tp] {
			out = append(out, tp)
		}
	}
	return out
}

// chainAt fills a chain of n tuples sharing home slot home and returns
// them with one more, absent tuple of the same home.
func chainAt(t *testing.T, tbl *Table, home uint32, n int) (chain []event.Tuple, absent event.Tuple) {
	t.Helper()
	tps := homed(tbl, home, n+1, nil)
	for _, tp := range tps[:n] {
		if !tbl.Insert(tp, 100) {
			t.Fatalf("Insert(%v) failed", tp)
		}
	}
	for k, tp := range tps[:n] {
		if i, _ := tbl.slot(tp); i != (home+uint32(k))&tbl.mask {
			t.Fatalf("chain tuple %d in slot %d, want %d", k, i, (home+uint32(k))&tbl.mask)
		}
	}
	return tps[:n], tps[n]
}

func TestPartition(t *testing.T) {
	const capacity, threshold = 8, 100 // 16 slots
	cases := []struct {
		name string
		// build fills a fresh table and returns the window to partition.
		build func(t *testing.T, tbl *Table) []event.Tuple
		nres  int
	}{
		{"home-slot hits", func(t *testing.T, tbl *Table) []event.Tuple {
			a, b := homed(tbl, 2, 1, nil)[0], homed(tbl, 9, 1, nil)[0]
			tbl.Insert(a, 100)
			tbl.Insert(b, 100)
			free := homed(tbl, 5, 1, nil)[0]
			return []event.Tuple{a, free, b, a, free}
		}, 3},
		{"chain of 3", func(t *testing.T, tbl *Table) []event.Tuple {
			c, absent := chainAt(t, tbl, 4, 3)
			return []event.Tuple{c[2], absent, c[1], c[0], absent, c[2]}
		}, 4},
		{"chain wrapping past the last slot", func(t *testing.T, tbl *Table) []event.Tuple {
			c, absent := chainAt(t, tbl, tbl.mask, 3)
			return []event.Tuple{absent, c[1], c[2], c[0], c[2]}
		}, 4},
		{"backward-shifted after an eviction", func(t *testing.T, tbl *Table) []event.Tuple {
			// A full table of replaceable entries, two chains among them.
			// The next Insert evicts the chain head (smallest count),
			// and the backward shift moves its followers home.
			c := homed(tbl, 6, 3, nil)
			skip := map[event.Tuple]bool{c[0]: true, c[1]: true, c[2]: true}
			tbl.Insert(c[0], 1)
			tbl.Insert(c[1], 5)
			tbl.Insert(c[2], 5)
			d := homed(tbl, tbl.mask, 2, skip)
			tbl.Insert(d[0], 2)
			tbl.Insert(d[1], 5)
			for k, tp := range homed(tbl, 11, 3, skip) {
				tbl.Insert(tp, uint64(5+k))
			}
			newcomer := homed(tbl, 3, 1, skip)[0]
			if !tbl.Insert(newcomer, 100) || tbl.Contains(c[0]) {
				t.Fatal("eviction setup: the chain head was not evicted")
			}
			if i, _ := tbl.slot(c[1]); i != 6 {
				t.Fatalf("backward shift left %v in slot %d, want its home 6", c[1], i)
			}
			if !tbl.Insert(homed(tbl, 3, 2, skip)[1], 100) || tbl.Contains(d[0]) {
				t.Fatal("eviction setup: the wrapped chain's head was not evicted")
			}
			if i, _ := tbl.slot(d[1]); i != tbl.mask {
				t.Fatalf("backward shift left %v in slot %d, want its home %d", d[1], i, tbl.mask)
			}
			return []event.Tuple{c[0], c[1], c[2], d[0], d[1], newcomer, c[2], d[1]}
		}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := mustNew(t, capacity, threshold)
			win := tc.build(t, tbl)
			if n := checkPartition(t, tbl, win); n != tc.nres {
				t.Fatalf("%d of %d events resident, want %d", n, len(win), tc.nres)
			}
			// The same events one at a time: windows of 1.
			for _, tp := range win {
				checkPartition(t, tbl, []event.Tuple{tp})
			}
		})
	}
}

// TestPartitionFullWindows partitions windows of the longest length in
// which every event, and then no event, is resident. The residents sit in
// collision chains, one wrapping past the last slot, and the absent
// tuples share their home slots, so each absent probe walks a chain.
func TestPartitionFullWindows(t *testing.T) {
	tbl := mustNew(t, 8, 100)
	var resident, absent []event.Tuple
	for _, home := range []uint32{3, tbl.mask} {
		c, _ := chainAt(t, tbl, home, 3)
		resident = append(resident, c...)
		absent = append(absent, homed(tbl, home, 6, nil)[3:]...)
	}
	all := make([]event.Tuple, Window)
	none := make([]event.Tuple, Window)
	for w := range all {
		all[w] = resident[(w*5)%len(resident)]
		none[w] = absent[(w*7)%len(absent)]
	}
	if n := checkPartition(t, tbl, all); n != Window {
		t.Fatalf("all-resident window: %d resident, want %d", n, Window)
	}
	if n := checkPartition(t, tbl, none); n != 0 {
		t.Fatalf("no-resident window: %d resident, want 0", n)
	}
	checkPartition(t, tbl, all[:1])
	checkPartition(t, tbl, none[:1])
}

// FuzzPartition drives a small table through inserts, evictions and
// interval boundaries, and checks every window's partition against
// per-tuple Contains and Count. Each byte is one step: its low six bits
// pick a tuple from a 64-tuple universe (four times the slots, so home
// slots collide and chains form and wrap), its top two bits the step:
// a replaceable Insert (so full tables evict and backward-shift), a
// non-replaceable Insert, appending the tuple to the window, or closing
// the window, optionally followed by an interval boundary.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x43, 0x81, 0x82, 0x83, 0x84, 0xc0})
	f.Add([]byte{0x05, 0x15, 0x25, 0x35, 0x06, 0x16, 0x26, 0x36, 0x07, 0x17,
		0x85, 0x95, 0xa5, 0xb5, 0x86, 0x96, 0xc3, 0x08, 0x18, 0x88, 0x98, 0xc0})
	f.Add([]byte{0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x09, 0x81,
		0x89, 0x82, 0xc2, 0x81, 0x82, 0x83, 0xc1})
	f.Fuzz(func(t *testing.T, steps []byte) {
		const capacity, threshold = 8, 4
		tbl := mustNew(t, capacity, threshold)
		var win []event.Tuple
		for _, b := range steps {
			tp := event.Tuple{A: uint64(b & 0x3f), B: 0x51}
			switch b >> 6 {
			case 0:
				tbl.Insert(tp, threshold-1)
			case 1:
				tbl.Insert(tp, threshold)
			case 2:
				win = append(win, tp)
				if len(win) < Window {
					continue
				}
				fallthrough
			case 3:
				checkPartition(t, tbl, win)
				win = win[:0]
				if b>>6 == 3 && b&1 != 0 {
					tbl.EndInterval(b&2 != 0)
				}
			}
		}
		checkPartition(t, tbl, win)
	})
}
