package antlayer

// Benchmark harness regenerating the paper's evaluation (DESIGN.md §3).
//
// One benchmark per paper figure (4-9) runs the figure's algorithm set
// over a deterministic corpus sample and reports the figure's headline
// metric per series as custom benchmark units, so `go test -bench=.`
// reproduces both the relative running times (Figs 8b/9b) and the quality
// series (who wins, by how much) of every table and figure. The §VIII
// parameter studies and the DESIGN.md ablations have their own benchmarks,
// and micro-benchmarks cover the individual algorithms per graph size.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"antlayer/internal/core"
	"antlayer/internal/experiments"
	"antlayer/internal/graphgen"
)

// benchOptions is the corpus configuration shared by the figure benches:
// a 3-graph sample per group keeps one bench iteration around a second
// while preserving the figures' qualitative shape. The colony runs
// sequentially so the Millis series stays per-call sequential cost;
// BenchmarkAntColonyWorkers* covers the parallel colony.
func benchOptions() experiments.Options {
	opts := experiments.Options{Seed: 7, PerGroup: 3, DummyWidth: 1, ACO: core.DefaultParams()}
	opts.ACO.Workers = 1
	return opts
}

// reportFigure re-runs the comparison and reports the mean of the figure's
// two metrics per algorithm as custom units.
func reportFigure(b *testing.B, fig int) {
	b.Helper()
	opts := benchOptions()
	var res *experiments.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	pair, err := res.Figure(fig)
	if err != nil {
		b.Fatal(err)
	}
	for pi, f := range pair {
		for _, s := range f.Series {
			mean := 0.0
			for _, y := range s.Y {
				mean += y
			}
			mean /= float64(len(s.Y))
			b.ReportMetric(mean, fmt.Sprintf("fig%d%c_%s", fig, 'a'+pi, sanitize(s.Name)))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFig4 — width incl./excl. dummies: LPL, LPL+PL, AntColony.
func BenchmarkFig4(b *testing.B) { reportFigure(b, 4) }

// BenchmarkFig5 — width incl./excl. dummies: MinWidth, MinWidth+PL, AntColony.
func BenchmarkFig5(b *testing.B) { reportFigure(b, 5) }

// BenchmarkFig6 — height and DVC: LPL, LPL+PL, AntColony.
func BenchmarkFig6(b *testing.B) { reportFigure(b, 6) }

// BenchmarkFig7 — height and DVC: MinWidth, MinWidth+PL, AntColony.
func BenchmarkFig7(b *testing.B) { reportFigure(b, 7) }

// BenchmarkFig8 — edge density and running time: LPL, LPL+PL, AntColony.
func BenchmarkFig8(b *testing.B) { reportFigure(b, 8) }

// BenchmarkFig9 — edge density and running time: MinWidth, MinWidth+PL, AntColony.
func BenchmarkFig9(b *testing.B) { reportFigure(b, 9) }

// BenchmarkFig8RunningTime isolates the running-time series of Fig 8 as
// real per-algorithm wall-clock sub-benchmarks over graph sizes (the
// paper's x axis), complementing the aggregated series above.
func BenchmarkFig8RunningTime(b *testing.B) {
	for _, n := range []int{10, 40, 70, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := graphgen.Generate(graphgen.DefaultConfig(n), rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("LPL/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LongestPath().Layer(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("LPL+PL/n=%d", n), func(b *testing.B) {
			l := WithPromotion(LongestPath())
			for i := 0; i < b.N; i++ {
				if _, err := l.Layer(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("AntColony/n=%d", n), func(b *testing.B) {
			// Sequential colony: the figure compares per-call sequential
			// cost against LPL; BenchmarkAntColonyWorkers* covers the pool.
			p := DefaultACOParams()
			p.Workers = 1
			l := AntColonyContext(context.Background(), p)
			for i := 0; i < b.N; i++ {
				if _, err := l.Layer(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9RunningTime is the MinWidth counterpart of Fig 9's
// running-time plot.
func BenchmarkFig9RunningTime(b *testing.B) {
	for _, n := range []int{10, 40, 70, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := graphgen.Generate(graphgen.DefaultConfig(n), rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("MinWidth/n=%d", n), func(b *testing.B) {
			l := MinWidthBest(1)
			for i := 0; i < b.N; i++ {
				if _, err := l.Layer(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("MinWidth+PL/n=%d", n), func(b *testing.B) {
			l := WithPromotion(MinWidthBest(1))
			for i := 0; i < b.N; i++ {
				if _, err := l.Layer(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTuningAlphaBeta regenerates the §VIII α/β study on a micro
// sample, reporting mean H+W per grid point.
func BenchmarkTuningAlphaBeta(b *testing.B) {
	opts := benchOptions()
	opts.PerGroup = 1
	alphas := []float64{1, 3, 5}
	betas := []float64{1, 3, 5}
	var cells []experiments.TuningCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.AlphaBetaStudy(opts, alphas, betas)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(c.HPlusW, fmt.Sprintf("HW_a%g_b%g", c.Alpha, c.Beta))
	}
}

// BenchmarkTuningDummyWidth regenerates the §VIII nd_width study.
func BenchmarkTuningDummyWidth(b *testing.B) {
	opts := benchOptions()
	opts.PerGroup = 1
	values := []float64{0.1, 0.5, 1.0, 1.2}
	var cells []experiments.NdWidthCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.NdWidthStudy(opts, values)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(c.HPlusW, fmt.Sprintf("HW_nd%g", c.NdWidth))
	}
}

// BenchmarkAblationSelection compares the three layer-selection rules
// (DESIGN.md E9).
func BenchmarkAblationSelection(b *testing.B) {
	opts := benchOptions()
	opts.PerGroup = 2
	var res []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.SelectionAblation(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.Mean.Height+r.Mean.WidthIncl, "HW_"+sanitize(r.Name))
	}
}

// BenchmarkAblationStretch compares stretch-between (paper Fig. 2) against
// stretch-ends (paper Fig. 1).
func BenchmarkAblationStretch(b *testing.B) {
	opts := benchOptions()
	opts.PerGroup = 2
	var res []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.StretchAblation(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.Mean.Height+r.Mean.WidthIncl, "HW_"+sanitize(r.Name))
	}
}

// BenchmarkAblationHeuristic compares the objective-delta heuristic with
// the literal §IV-D layer-width formula.
func BenchmarkAblationHeuristic(b *testing.B) {
	opts := benchOptions()
	opts.PerGroup = 2
	var res []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.HeuristicAblation(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.Mean.Height+r.Mean.WidthIncl, "HW_"+sanitize(r.Name))
		b.ReportMetric(r.Mean.Dummies, "DVC_"+sanitize(r.Name))
	}
}

// BenchmarkExtendedComparison runs the E10 extended algorithm set
// (NetworkSimplex, Coffman–Graham) alongside the paper's five.
func BenchmarkExtendedComparison(b *testing.B) {
	opts := benchOptions()
	opts.PerGroup = 2
	var res *experiments.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunExtended(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{experiments.NameNetworkSimplex, experiments.NameCoffmanGraham, experiments.NameAntColony} {
		means := res.Mean[name]
		d := 0.0
		for _, m := range means {
			d += m.Dummies
		}
		b.ReportMetric(d/float64(len(means)), "DVC_"+sanitize(name))
	}
}

// BenchmarkOptimalityGap runs the E11 gap study: heuristics vs the exact
// branch-and-bound optimum on small instances, reporting mean gaps.
func BenchmarkOptimalityGap(b *testing.B) {
	var results []experiments.GapResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.GapStudy(9, 10, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.Mean*100, "gapPct_"+sanitize(r.Name))
	}
}

// benchmarkAntColonyWorkers is the shared body of the worker-scaling
// benchmarks: one colony run on a fixed 200-vertex graph with a colony
// large enough (32 ants) to keep every worker busy. The layering produced
// is identical across the three benchmarks — only the wall clock moves —
// so comparing BenchmarkAntColonyWorkers{1,4,8} ns/op isolates the
// speedup of parallel tour construction.
func benchmarkAntColonyWorkers(b *testing.B, workers int) {
	b.Helper()
	rng := rand.New(rand.NewSource(200))
	g, err := graphgen.Generate(graphgen.DefaultConfig(200), rng)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultACOParams()
	p.Ants = 32
	p.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AntColonyRunContext(context.Background(), g, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAntColonyWorkers1(b *testing.B) { benchmarkAntColonyWorkers(b, 1) }
func BenchmarkAntColonyWorkers4(b *testing.B) { benchmarkAntColonyWorkers(b, 4) }
func BenchmarkAntColonyWorkers8(b *testing.B) { benchmarkAntColonyWorkers(b, 8) }

// BenchmarkIsland pins the island-model archipelago on a fixed 100-vertex
// graph: 4 islands × 4 tours of 8 ants with a migration every 2 tours,
// sequential colonies so the measurement isolates the island machinery
// (stepping, barriers, elite migration) rather than the tour worker pool.
// It is part of the CI benchmark-regression gate alongside the walk and
// worker benchmarks.
func BenchmarkIsland(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	g, err := graphgen.Generate(graphgen.DefaultConfig(100), rng)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultIslandParams()
	p.Colony.Ants = 8
	p.Colony.Tours = 4
	p.Colony.Workers = 1
	p.Islands = 4
	p.MigrationInterval = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IslandColonyRunContext(context.Background(), g, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColonyScaling measures one colony run across graph sizes and
// worker counts (the repository's parallel-execution extension).
func BenchmarkColonyScaling(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := graphgen.Generate(graphgen.DefaultConfig(n), rng)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				p := DefaultACOParams()
				p.Workers = workers
				for i := 0; i < b.N; i++ {
					if _, err := AntColonyRunContext(context.Background(), g, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAntWalk isolates one ant's solution construction through the
// public API (colony setup included); BenchmarkWalk/BenchmarkChooseLayer
// in internal/core measure the walk and the per-vertex decision alone,
// with allocation counts.
func BenchmarkAntWalk(b *testing.B) {
	for _, n := range []int{50, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := graphgen.Generate(graphgen.DefaultConfig(n), rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := DefaultACOParams()
			p.Ants = 1
			p.Tours = 1
			for i := 0; i < b.N; i++ {
				if _, err := AntColonyRunContext(context.Background(), g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselines measures the non-ACO layering algorithms.
func BenchmarkBaselines(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	g, err := graphgen.Generate(graphgen.DefaultConfig(100), rng)
	if err != nil {
		b.Fatal(err)
	}
	algos := []struct {
		name string
		l    Layerer
	}{
		{"LongestPath", LongestPath()},
		{"MinWidthBest", MinWidthBest(1)},
		{"CoffmanGraham4", CoffmanGraham(4)},
		{"Promote", WithPromotion(LongestPath())},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.l.Layer(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSugiyamaPipeline measures the full drawing pipeline.
func BenchmarkSugiyamaPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(101))
	g, err := graphgen.Generate(graphgen.DefaultConfig(80), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lpl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Draw(g, LongestPath(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("aco", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Draw(g, AntColonyContext(context.Background(), DefaultACOParams()), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorpusGeneration measures the synthetic corpus substitute.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := graphgen.CorpusSample(7, 8); err != nil {
			b.Fatal(err)
		}
	}
}
