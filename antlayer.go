package antlayer

import (
	"context"
	"fmt"
	"io"

	"antlayer/internal/coffmangraham"
	"antlayer/internal/core"
	"antlayer/internal/dag"
	"antlayer/internal/dot"
	"antlayer/internal/island"
	"antlayer/internal/layering"
	"antlayer/internal/longestpath"
	"antlayer/internal/minwidth"
	"antlayer/internal/netsimplex"
	"antlayer/internal/promote"
	"antlayer/internal/sugiyama"
)

// Graph is a directed graph with dense integer vertices 0..N()-1. Edges
// (u, v) point from the higher layer to the lower one in every layering
// this library produces.
type Graph = dag.Graph

// Edge is a directed edge.
type Edge = dag.Edge

// Layering is a layer assignment over a Graph; layers are 1-based and every
// edge (u, v) satisfies Layer(u) > Layer(v).
type Layering = layering.Layering

// Metrics bundles the paper's five evaluation criteria for a layering.
type Metrics = layering.Metrics

// Proper is a layering made proper by dummy-vertex insertion.
type Proper = layering.Proper

// ACOParams configures the ant colony (see DefaultACOParams for the
// paper's settings).
type ACOParams = core.Params

// ACOResult is the full outcome of a colony run including per-tour history.
type ACOResult = core.Result

// ACOState is a colony's compact carryable search state — the pheromone
// matrix plus the elite layering — exported by a run with
// ACOParams.ExportState set and replayed into a later run through
// ACOParams.Warm. See MapVerticesByName for carrying a state across a
// graph edit.
type ACOState = core.State

// MapVerticesByName builds the vertex mapping ACOState.Remap consumes:
// mapping[new] is the index of the vertex with the same name in the old
// graph, or -1 when the vertex is new. Deterministic: duplicate names
// map to the lowest old index.
func MapVerticesByName(oldNames, newNames []string) []int {
	return core.MapByName(oldNames, newNames)
}

// IslandParams configures the island-model multi-colony search (see
// DefaultIslandParams and internal/island for the topology).
type IslandParams = island.Params

// IslandResult is the full outcome of an island run: the winning island's
// colony result plus per-island statistics.
type IslandResult = island.Result

// MinWidthParams configures a single MinWidth run.
type MinWidthParams = minwidth.Params

// Drawing is the output of the Sugiyama pipeline.
type Drawing = sugiyama.Drawing

// PipelineConfig configures the Sugiyama pipeline (see Draw).
type PipelineConfig = sugiyama.Config

// Selection, stretch and heuristic modes for ACOParams.
const (
	SelectPseudoRandom  = core.SelectPseudoRandom
	SelectArgMax        = core.SelectArgMax
	SelectRoulette      = core.SelectRoulette
	StretchBetween      = core.StretchBetween
	StretchEnds         = core.StretchEnds
	HeuristicObjective  = core.HeuristicObjective
	HeuristicLayerWidth = core.HeuristicLayerWidth
)

// NewGraph returns a graph with n isolated vertices.
func NewGraph(n int) *Graph { return dag.New(n) }

// DefaultACOParams returns the parameters of the paper's main experiments
// (10 tours, alpha=1, beta=3, unit dummy width, argmax selection). The
// Workers field is 0, so tour construction runs on one goroutine per CPU;
// set Workers to 1 for a sequential colony. Either way the result is a
// pure function of the parameters: the same Seed yields the same layering
// at any worker count (see README.md "Parallelism").
func DefaultACOParams() ACOParams { return core.DefaultParams() }

// DefaultIslandParams returns the default archipelago: 4 islands running
// DefaultACOParams colonies with elite migration around the ring every 2
// tours. Like the single colony, an island run is a pure function of its
// parameters — bitwise-identical at any worker count — because each
// island's seed is derived SplitMix64-style from (Seed, island) and
// migration happens only at barriers.
func DefaultIslandParams() IslandParams { return island.DefaultParams() }

// Layerer is a layering algorithm. All constructors below return one.
type Layerer interface {
	Layer(g *Graph) (*Layering, error)
}

type layererFunc func(g *Graph) (*Layering, error)

func (f layererFunc) Layer(g *Graph) (*Layering, error) { return f(g) }

// LongestPath returns the Longest-Path Layering algorithm (Algorithm 1 of
// the paper): minimum height, linear time, often wide.
func LongestPath() Layerer {
	return layererFunc(longestpath.Layer)
}

// MinWidth returns the MinWidth heuristic (Algorithm 2 of the paper) with
// explicit parameters.
func MinWidth(p MinWidthParams) Layerer {
	return layererFunc(func(g *Graph) (*Layering, error) { return minwidth.Layer(g, p) })
}

// MinWidthBest returns MinWidth scanning the (UBW, C) parameter grid used
// in the paper's experiments and keeping the narrowest layering.
func MinWidthBest(dummyWidth float64) Layerer {
	return layererFunc(func(g *Graph) (*Layering, error) { return minwidth.LayerBest(g, dummyWidth) })
}

// CoffmanGraham returns the Coffman–Graham width-bounded layering with at
// most width real vertices per layer.
func CoffmanGraham(width int) Layerer {
	return layererFunc(func(g *Graph) (*Layering, error) { return coffmangraham.Layer(g, width) })
}

// NetworkSimplex returns the Gansner et al. network simplex layering,
// which minimises the total edge span (equivalently the dummy vertex
// count). It is the exact method the Promote Layering heuristic
// approximates.
func NetworkSimplex() Layerer {
	return layererFunc(netsimplex.Layer)
}

// NetworkSimplexBalanced is NetworkSimplex followed by the balance pass:
// vertices with equal in- and out-degree move to the least crowded layer
// of their span, evening out layer widths at unchanged total edge span.
func NetworkSimplexBalanced() Layerer {
	return layererFunc(func(g *Graph) (*Layering, error) { return netsimplex.LayerBalanced(g, true) })
}

// Options bundles every per-algorithm knob LayererByName needs — the
// vocabulary shared by cmd/daglayer and the HTTP daemon. Zero values fall
// back to the documented defaults; ACO must be a valid parameter set (start
// from DefaultACOParams) for the "aco" and "island" algorithms.
type Options struct {
	// DummyWidth is the dummy-vertex width used by "minwidth". 0 means 1.
	DummyWidth float64
	// CGWidth is the real-vertex width bound of "cg". 0 means 4.
	CGWidth int
	// ACO configures the colony of "aco" and every island of "island".
	ACO ACOParams
	// Islands is the colony count of "island". 0 means the
	// DefaultIslandParams count.
	Islands int
	// MigrationInterval is the tours between elite migrations of
	// "island". 0 means the DefaultIslandParams interval.
	MigrationInterval int
}

// IslandOf assembles the island parameters the "island" algorithm runs
// with: the ACO colony under the archipelago described by Islands and
// MigrationInterval, defaults applied.
func (o Options) IslandOf() IslandParams {
	p := DefaultIslandParams()
	p.Colony = o.ACO
	if o.Islands > 0 {
		p.Islands = o.Islands
	}
	if o.MigrationInterval > 0 {
		p.MigrationInterval = o.MigrationInterval
	}
	return p
}

// LayererByName returns the layering algorithm with the given short name:
// "aco" (the paper's ant colony, configured by opts.ACO and bounded by
// ctx), "island" (the island-model multi-colony search over opts.ACO
// colonies, also bounded by ctx), "lpl" (LongestPath), "minwidth"
// (MinWidthBest at opts.DummyWidth), "cg" (CoffmanGraham at opts.CGWidth)
// or "ns" (NetworkSimplex).
func LayererByName(ctx context.Context, name string, opts Options) (Layerer, error) {
	if opts.DummyWidth == 0 {
		opts.DummyWidth = 1
	}
	if opts.CGWidth == 0 {
		opts.CGWidth = 4
	}
	switch name {
	case "aco":
		return AntColonyContext(ctx, opts.ACO), nil
	case "island":
		return IslandColonyContext(ctx, opts.IslandOf()), nil
	case "lpl":
		return LongestPath(), nil
	case "minwidth":
		return MinWidthBest(opts.DummyWidth), nil
	case "cg":
		return CoffmanGraham(opts.CGWidth), nil
	case "ns":
		return NetworkSimplex(), nil
	}
	return nil, fmt.Errorf("antlayer: unknown algorithm %q (want aco|island|lpl|minwidth|cg|ns)", name)
}

// AntColonyContext returns the paper's ACO layering algorithm with every
// run bounded by ctx: when ctx is cancelled or its deadline expires the
// colony stops within one ant walk per worker and Layer returns an error
// wrapping ctx.Err(). A run that completes is unaffected by the context —
// the layering is the same bitwise-deterministic function of the
// parameters. Pass context.Background() for a run that cannot be
// cancelled.
func AntColonyContext(ctx context.Context, p ACOParams) Layerer {
	return layererFunc(func(g *Graph) (*Layering, error) { return core.Layer(ctx, g, p) })
}

// AntColonyRunContext runs the colony under ctx and returns the full
// result including the objective value and per-tour convergence history;
// see AntColonyContext for the cancellation semantics.
func AntColonyRunContext(ctx context.Context, g *Graph, p ACOParams) (*ACOResult, error) {
	return core.Run(ctx, g, p)
}

// IslandColonyContext returns the island-model multi-colony layering
// algorithm: p.Islands cooperating colonies with elite ring migration
// every p.MigrationInterval tours (see IslandParams), every run bounded
// by ctx with the cancellation semantics of AntColonyContext applied to
// every island.
func IslandColonyContext(ctx context.Context, p IslandParams) Layerer {
	return layererFunc(func(g *Graph) (*Layering, error) { return island.Layer(ctx, g, p) })
}

// IslandColonyRunContext runs the archipelago under ctx and returns the
// full result including the winning island and per-island statistics.
func IslandColonyRunContext(ctx context.Context, g *Graph, p IslandParams) (*IslandResult, error) {
	return island.Run(ctx, g, p)
}

// WithPromotion wraps a layerer with the Promote Layering heuristic of
// Nikolov and Tarassov as post-processing, the "+PL" variants of the
// paper's evaluation.
func WithPromotion(base Layerer) Layerer {
	return layererFunc(func(g *Graph) (*Layering, error) {
		l, err := base.Layer(g)
		if err != nil {
			return nil, err
		}
		improved, _ := promote.Apply(l)
		return improved, nil
	})
}

// Promote applies the Promote Layering heuristic to an existing layering
// and returns the improved copy.
func Promote(l *Layering) *Layering {
	improved, _ := promote.Apply(l)
	return improved
}

// Fixed returns a Layerer that answers with a copy of the already-computed
// layering l, so Draw renders l instead of running an algorithm a second
// time. It hands out a copy because the pipeline normalizes the layering
// it receives in place.
func Fixed(l *Layering) Layerer {
	return layererFunc(func(*Graph) (*Layering, error) { return l.Clone(), nil })
}

// Draw runs the full Sugiyama pipeline (cycle removal, layering, dummy
// insertion, crossing minimisation, coordinates) on g, which may contain
// cycles, using the given layerer.
func Draw(g *Graph, l Layerer, cfg *PipelineConfig) (*Drawing, error) {
	var c sugiyama.Config
	if cfg != nil {
		c = *cfg
	} else {
		c = sugiyama.DefaultConfig(nil)
	}
	c.Layerer = sugiyama.LayererFunc(l.Layer)
	return sugiyama.Run(g, c)
}

// ReadDOT parses a digraph in DOT format and returns the graph together
// with the node-name mapping.
func ReadDOT(r io.Reader) (*Graph, []string, error) {
	named, err := dot.Read(r)
	if err != nil {
		return nil, nil, err
	}
	return named.Graph, named.Names, nil
}

// WriteDOT serialises g in DOT format.
func WriteDOT(w io.Writer, g *Graph, name string) error {
	return dot.Write(w, g, name)
}
