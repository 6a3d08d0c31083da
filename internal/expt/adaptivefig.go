package expt

import (
	"fmt"

	"hwprof/internal/adaptive"
	"hwprof/internal/core"
	"hwprof/internal/event"
	"hwprof/internal/synth"
)

// AdaptiveTable exercises the §5.6.1 extension: for each benchmark, start
// the adaptive controller at the paper's 10K interval and let it pick a
// length. Phase-stable programs grow to 640K and stay; programs whose
// phases alternate every 5–8K events (m88ksim, vortex) shrink instead and
// lock onto their phase scale (1.25–2.5K), oscillating there — tracking
// the phases rather than averaging over them. The table reports the chosen
// length and the adaptation history over a 2M-event run per benchmark.
func AdaptiveTable(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		Title:  "Extension (§5.6.1): adaptive interval selection, 2M events per benchmark",
		Header: []string{"benchmark", "start", "final", "grows", "shrinks", "boundaries"},
	}
	const budget = 2_000_000
	for _, bench := range opts.Benchmarks {
		g, err := synth.NewBenchmark(bench, event.KindValue, opts.Seed)
		if err != nil {
			return Table{}, err
		}
		base := core.BestMultiHash(core.ShortIntervalConfig())
		base.Seed = opts.Seed + 7
		a, err := adaptive.New(adaptive.Config{
			Base:        base,
			MinLength:   1_000,
			MaxLength:   1_000_000,
			ShrinkAbove: 60,
			GrowBelow:   10,
			Settle:      1,
		})
		if err != nil {
			return Table{}, err
		}
		grows, shrinks, boundaries := 0, 0, 0
		for i := 0; i < budget; i++ {
			tp, ok := g.Next()
			if !ok {
				return Table{}, fmt.Errorf("expt: %s: stream ended", bench)
			}
			b, err := a.Observe(tp)
			if err != nil {
				return Table{}, err
			}
			if b == nil {
				continue
			}
			boundaries++
			switch b.Adapted {
			case adaptive.Grown:
				grows++
			case adaptive.Shrunk:
				shrinks++
			}
		}
		t.AddRow(bench, "10000", fmt.Sprintf("%d", a.IntervalLength()),
			fmt.Sprintf("%d", grows), fmt.Sprintf("%d", shrinks),
			fmt.Sprintf("%d", boundaries))
	}
	return t, nil
}
