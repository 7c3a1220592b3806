// Package experiments regenerates the paper's evaluation (§VII, §VIII):
// the six figures comparing the Ant Colony layering against LPL, MinWidth
// and their Promote-Layering combinations, the α/β and nd_width parameter
// tuning tables, and the ablation studies called out in DESIGN.md.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"antlayer/internal/core"
	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/layering"
	"antlayer/internal/longestpath"
	"antlayer/internal/minwidth"
	"antlayer/internal/promote"
)

// Canonical algorithm names used in figures and tables; they mirror the
// paper's plot legends.
const (
	NameLPL        = "LPL"
	NameLPLPL      = "LPL+PL"
	NameMinWidth   = "MinWidth"
	NameMinWidthPL = "MinWidth+PL"
	NameAntColony  = "AntColony"
)

// Algorithm is a named layering procedure under evaluation. Layer receives
// a per-invocation seed derived from the graph's position in the corpus,
// so stochastic algorithms stay deterministic even when the harness
// evaluates graphs concurrently; deterministic algorithms ignore it.
type Algorithm struct {
	Name  string
	Layer func(g *dag.Graph, seed int64) (*layering.Layering, error)
}

// Options configures a corpus evaluation.
type Options struct {
	// Seed generates the corpus (and the ACO runs, offset per graph so
	// every run differs but the whole experiment is reproducible).
	Seed int64
	// PerGroup caps the corpus sample per group; 0 means the full 1277
	// graphs. The harness's statistical shape is stable from ~8 per group.
	PerGroup int
	// DummyWidth is the dummy vertex width used for metrics and ACO.
	DummyWidth float64
	// ACO holds the colony parameters (DefaultParams when zero-valued).
	ACO core.Params
	// Family selects the corpus profile (default: the AT&T-like Sparse).
	Family graphgen.Family
	// Workers evaluates the graphs of a group concurrently when > 1.
	// Results are deterministic regardless of Workers: the per-graph ACO
	// seed depends only on the graph's position in the corpus. Running
	// time measurements remain per-call wall clock and therefore gain
	// noise under contention; use Workers=1 for the timing figures.
	// ACO.Workers controls parallelism *inside* each colony run the same
	// way; the zero-ACO fallback pins it to 1 so Millis measures
	// sequential per-call cost unless a caller opts out.
	Workers int
}

func (o Options) normalized() Options {
	if o.DummyWidth <= 0 {
		o.DummyWidth = 1
	}
	if o.ACO.Tours == 0 {
		// Zero-valued ACO: adopt the defaults with the colony pinned to
		// ACO.Workers=1 (not the library's all-CPUs default), so the
		// Millis series stays the sequential per-call cost the paper's
		// timing figures report. An explicitly provided ACO keeps its
		// Workers setting untouched.
		o.ACO = core.DefaultParams()
		o.ACO.Workers = 1
	}
	o.ACO.DummyWidth = o.DummyWidth
	return o
}

// Measurement is the per-graph observation vector; aggregated values keep
// the same shape.
type Measurement struct {
	WidthIncl   float64 // width including dummy vertices
	WidthExcl   float64 // width excluding dummy vertices
	Height      float64
	Dummies     float64
	EdgeDensity float64
	Millis      float64 // running time of the layering call
}

func (m *Measurement) add(o Measurement) {
	m.WidthIncl += o.WidthIncl
	m.WidthExcl += o.WidthExcl
	m.Height += o.Height
	m.Dummies += o.Dummies
	m.EdgeDensity += o.EdgeDensity
	m.Millis += o.Millis
}

func (m *Measurement) scale(f float64) {
	m.WidthIncl *= f
	m.WidthExcl *= f
	m.Height *= f
	m.Dummies *= f
	m.EdgeDensity *= f
	m.Millis *= f
}

// Results holds per-group means for every algorithm.
type Results struct {
	// X is the vertex count of each group (10, 15, ..., 100).
	X []int
	// Mean[name][i] is the mean measurement of the algorithm over group i.
	Mean map[string][]Measurement
	// GraphsPerGroup records the sample size used.
	GraphsPerGroup []int
	// Options echoes the configuration.
	Options Options
}

// StandardAlgorithms returns the five algorithms of the paper's
// experiments. The ant colony derives its seed from the harness-provided
// per-graph seed, so the whole experiment is deterministic regardless of
// evaluation order or concurrency.
func StandardAlgorithms(opts Options) []Algorithm {
	opts = opts.normalized()
	acoSeed := opts.ACO.Seed
	return []Algorithm{
		{NameLPL, func(g *dag.Graph, _ int64) (*layering.Layering, error) {
			return longestpath.Layer(g)
		}},
		{NameLPLPL, func(g *dag.Graph, _ int64) (*layering.Layering, error) {
			l, err := longestpath.Layer(g)
			if err != nil {
				return nil, err
			}
			improved, _ := promote.Apply(l)
			return improved, nil
		}},
		{NameMinWidth, func(g *dag.Graph, _ int64) (*layering.Layering, error) {
			return minwidth.LayerBest(g, opts.DummyWidth)
		}},
		{NameMinWidthPL, func(g *dag.Graph, _ int64) (*layering.Layering, error) {
			l, err := minwidth.LayerBest(g, opts.DummyWidth)
			if err != nil {
				return nil, err
			}
			improved, _ := promote.Apply(l)
			return improved, nil
		}},
		{NameAntColony, func(g *dag.Graph, seed int64) (*layering.Layering, error) {
			p := opts.ACO
			p.Seed = acoSeed + seed
			return core.Layer(context.Background(), g, p)
		}},
	}
}

// Run evaluates the standard algorithms over the corpus and returns the
// per-group means that the figures plot.
func Run(opts Options) (*Results, error) {
	opts = opts.normalized()
	return RunAlgorithms(StandardAlgorithms(opts), opts)
}

// RunAlgorithms evaluates a custom algorithm set over the corpus.
func RunAlgorithms(algos []Algorithm, opts Options) (*Results, error) {
	opts = opts.normalized()
	groups, err := graphgen.CorpusFamily(opts.Seed, opts.PerGroup, opts.Family)
	if err != nil {
		return nil, err
	}
	res := &Results{
		Mean:    make(map[string][]Measurement, len(algos)),
		Options: opts,
	}
	for _, a := range algos {
		res.Mean[a.Name] = make([]Measurement, len(groups))
	}
	for gi, group := range groups {
		res.X = append(res.X, group.Vertices)
		res.GraphsPerGroup = append(res.GraphsPerGroup, len(group.Graphs))
		for _, a := range algos {
			ms, err := measureGroup(a, group, gi, opts)
			if err != nil {
				return nil, err
			}
			mean := Measurement{}
			for _, m := range ms {
				mean.add(m)
			}
			if len(ms) > 0 {
				mean.scale(1 / float64(len(ms)))
			}
			res.Mean[a.Name][gi] = mean
		}
	}
	return res, nil
}

// measureGroup evaluates one algorithm over a corpus group, optionally
// with Workers goroutines. The per-graph seed is gi*1e6 + graph index, so
// results do not depend on scheduling.
func measureGroup(a Algorithm, group graphgen.Group, gi int, opts Options) ([]Measurement, error) {
	ms := make([]Measurement, len(group.Graphs))
	errs := make([]error, len(group.Graphs))
	seedOf := func(j int) int64 { return int64(gi)*1_000_000 + int64(j) }
	if opts.Workers <= 1 {
		for j, g := range group.Graphs {
			ms[j], errs[j] = MeasureOne(a, g, seedOf(j), opts.DummyWidth)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					ms[j], errs[j] = MeasureOne(a, group.Graphs[j], seedOf(j), opts.DummyWidth)
				}
			}()
		}
		for j := range group.Graphs {
			next <- j
		}
		close(next)
		wg.Wait()
	}
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on group n=%d graph %d: %w", a.Name, group.Vertices, j, err)
		}
	}
	return ms, nil
}

// MeasureOne runs one algorithm on one graph and evaluates all criteria.
func MeasureOne(a Algorithm, g *dag.Graph, seed int64, dummyWidth float64) (Measurement, error) {
	start := time.Now()
	l, err := a.Layer(g, seed)
	elapsed := time.Since(start)
	if err != nil {
		return Measurement{}, err
	}
	if err := l.Validate(); err != nil {
		return Measurement{}, fmt.Errorf("invalid layering: %w", err)
	}
	met := l.ComputeMetrics(dummyWidth)
	return Measurement{
		WidthIncl:   met.WidthIncl,
		WidthExcl:   met.WidthExcl,
		Height:      float64(met.Height),
		Dummies:     float64(met.DummyCount),
		EdgeDensity: float64(met.EdgeDensity),
		Millis:      float64(elapsed.Nanoseconds()) / 1e6,
	}, nil
}
