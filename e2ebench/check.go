package main

import (
	"context"
	"fmt"

	"hwprof"
	"hwprof/internal/scenario"
)

// divergence is the first delivered profile or epoch that differs from
// the local reference run.
type divergence struct {
	workload string
	what     string // "interval", "epoch", "pass 3 interval", ...
	index    int
	got      uint32
	want     uint32
}

func (d *divergence) Error() string {
	return fmt.Sprintf("%s: %s %d differs from the local reference: delivered digest %08x, reference digest %08x",
		d.workload, d.what, d.index, d.got, d.want)
}

// reference runs the first `events` events of the cyclic stream through a
// fresh local hwprof.Profile of the workload's geometry — the engine
// construction the daemon uses too — and returns each interval profile's
// digest.
func reference(p Params, stream []hwprof.Tuple, events int) ([]uint32, error) {
	var out []uint32
	_, err := hwprof.Profile(context.Background(), &cyclic{stream: stream, limit: events},
		hwprof.WithConfig(p.Config), hwprof.WithShards(p.Shards), hwprof.WithBatchSize(p.Frame),
		hwprof.WithoutOracle(),
		hwprof.OnInterval(func(i int, _, h map[hwprof.Tuple]uint64) {
			out = append(out, scenario.Digest(i, h))
		}))
	return out, err
}

// digests fingerprints delivered profiles in index order; a nil profile
// (never delivered, or partial) is marked absent.
func digests(profiles []map[hwprof.Tuple]uint64) (got []uint32, present []bool) {
	got = make([]uint32, len(profiles))
	present = make([]bool, len(profiles))
	for i, c := range profiles {
		if c != nil {
			got[i], present[i] = scenario.Digest(i, c), true
		}
	}
	return got, present
}

// compare checks delivered digests against the reference in index order.
// Absent deliveries are counted as missing; the first present one that
// differs is returned as a *divergence.
func compare(workload, what string, got []uint32, present []bool, want []uint32) (missing int, err error) {
	for i, w := range want {
		if i >= len(got) || !present[i] {
			missing++
			continue
		}
		if got[i] != w {
			return missing, &divergence{workload: workload, what: what, index: i, got: got[i], want: w}
		}
	}
	return missing, nil
}

// tamper changes one count of one delivered profile, for the check's
// negative self-test.
func tamper(profiles []map[hwprof.Tuple]uint64) bool {
	for i := len(profiles) / 2; i < len(profiles); i++ {
		for tp := range profiles[i] {
			profiles[i][tp]++
			return true
		}
	}
	return false
}

// accuracy scores delivered profiles against the Perfect profile of the
// same interval of the stream, over the stream's first pass: the paper's
// §5.5 net error in percent, and the share of reported tuples that are
// not Perfect candidates.
func accuracy(p Params, stream []hwprof.Tuple, profiles []map[hwprof.Tuple]uint64) (netErrPct, falsePos float64, n int) {
	threshold := p.Config.ThresholdCount()
	c := &cyclic{stream: stream}
	var total float64
	var reported, wrong int
	perfect := make(map[hwprof.Tuple]uint64)
	for i := 0; i < min(len(stream)/p.L(), len(profiles)); i++ {
		h := profiles[i]
		if h == nil {
			continue
		}
		clear(perfect)
		for _, tp := range c.slice(i*p.L(), p.L()) {
			perfect[tp]++
		}
		total += hwprof.EvalInterval(perfect, h, threshold).Total
		for tp := range h {
			if perfect[tp] < threshold {
				wrong++
			}
		}
		reported += len(h)
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	if reported > 0 {
		falsePos = float64(wrong) / float64(reported)
	}
	return 100 * total / float64(n), falsePos, n
}
