// Heavy-hitter accounting on network flows: the multi-hash architecture
// descends from Estan & Varghese's traffic-measurement sketches (paper
// §6), and the same hardware finds the flows consuming the most bandwidth.
// Here a tuple is <srcHost, dstHost> and each event is one packet; the
// profiler catches every flow above 0.5% of an interval's packets.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"hwprof"
	"hwprof/internal/xrand"
)

// flowGen synthesizes packet arrivals: a few elephant flows inside a swarm
// of mice, with the elephant set drifting every interval.
type flowGen struct {
	r     *xrand.Rand
	epoch uint64
	n     uint64
}

func (g *flowGen) Next() (hwprof.Tuple, bool) {
	g.n++
	if g.n%200_000 == 0 {
		g.epoch++ // elephants churn slowly
	}
	u := g.r.Float64()
	switch {
	case u < 0.45: // elephants: 6 flows share ~45% of packets
		id := g.r.Uint64n(6)
		return hwprof.Tuple{
			A: 0x0a_00_00_01 + xrand.Mix64(g.epoch*31+id)%32,
			B: 0x0a_00_10_00 + id,
		}, true
	case u < 0.6: // steady medium flows
		id := g.r.Uint64n(400)
		return hwprof.Tuple{A: 0x0a_00_20_00 + id%64, B: 0x0a_00_30_00 + id}, true
	default: // mice: effectively unique scans
		return hwprof.Tuple{A: g.r.Uint64n(1 << 24), B: g.r.Uint64n(1 << 24)}, true
	}
}

func main() {
	cfg := hwprof.BestMultiHash(hwprof.Config{
		IntervalLength:   100_000, // packets per accounting interval
		ThresholdPercent: 0.5,     // report flows above 0.5% of packets
		TotalEntries:     2048,
		NumTables:        4,
		CounterWidth:     24,
		Seed:             9,
	})

	src := hwprof.FromNexter(&flowGen{r: xrand.New(7)})
	_, err := hwprof.Profile(context.Background(), hwprof.Limit(src, cfg.IntervalLength*4),
		hwprof.WithConfig(cfg), hwprof.OnInterval(func(i int, perfect, hardware map[hwprof.Tuple]uint64) {
			iv := hwprof.EvalInterval(perfect, hardware, cfg.ThresholdCount())
			fmt.Printf("interval %d: %d heavy flows caught, accounting error %.2f%%\n",
				i, iv.PerfectCandidates, iv.Total*100)
			type flow struct {
				t hwprof.Tuple
				n uint64
			}
			var flows []flow
			for t, n := range hardware {
				if n >= cfg.ThresholdCount() {
					flows = append(flows, flow{t, n})
				}
			}
			sort.Slice(flows, func(a, b int) bool { return flows[a].n > flows[b].n })
			for _, f := range flows {
				fmt.Printf("    %s -> %s  %6d packets (≥%.1f%% of traffic)\n",
					ip(f.t.A), ip(f.t.B), f.n,
					100*float64(f.n)/float64(cfg.IntervalLength))
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
}

// ip renders the low 32 bits as a dotted quad.
func ip(v uint64) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
