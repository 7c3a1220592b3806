// Package antlayer is a Go library for layering directed acyclic graphs,
// reproducing "Applying Ant Colony Optimization Metaheuristic to the DAG
// Layering Problem" (Andreev, Healy, Nikolov — IPPS 2007).
//
// The DAG layering problem assigns every vertex to an integer layer so that
// all edges point downward (layer(u) > layer(v) for each edge (u, v)); it is
// the step of the Sugiyama hierarchical-drawing framework that fixes the
// height and width of the final drawing. This package provides:
//
//   - the paper's contribution: an Ant Colony Optimization layering that
//     minimises height plus width while accounting for the width
//     contributed by dummy vertices (AntColonyContext, ACOParams);
//   - the baselines it is evaluated against: Longest-Path Layering
//     (LongestPath), the MinWidth heuristic (MinWidth, MinWidthBest), the
//     Promote Layering post-processing step (WithPromotion) and
//     Coffman–Graham width-bounded layering (CoffmanGraham);
//   - the surrounding substrate: a DAG type (NewGraph), layering metrics
//     (Metrics), proper-layering dummy insertion, DOT and edge-list I/O,
//     and a full Sugiyama pipeline producing SVG/ASCII drawings (Draw);
//   - the benchmark harness regenerating every figure of the paper's
//     evaluation (see cmd/experiments, EXPERIMENTS.md and bench_test.go).
//
// # Quickstart
//
//	g := antlayer.NewGraph(4)
//	g.MustAddEdge(3, 2) // edges point from higher layers to lower ones
//	g.MustAddEdge(3, 1)
//	g.MustAddEdge(2, 0)
//	g.MustAddEdge(1, 0)
//
//	l, err := antlayer.AntColonyContext(context.Background(), antlayer.DefaultACOParams()).Layer(g)
//	if err != nil { ... }
//	fmt.Println(l.Height(), l.WidthIncludingDummies(1.0))
//
// # Parallelism
//
// Ant tours are constructed on a goroutine worker pool sized by
// ACOParams.Workers (0 = one per CPU). The result is deterministic for a
// fixed Seed at any worker count: per-ant RNGs are derived independently
// from (Seed, tour, ant index), and pheromone updates happen between
// tours, never during one. See README.md ("Parallelism") for the full
// guarantee.
//
// Above the per-tour pool, IslandColonyContext runs an island model: K
// colonies searching concurrently from independent derived seeds,
// migrating each island's elite layering around a ring as a pheromone
// deposit every few tours (IslandParams). Given an equal total tour
// budget the archipelago matches or improves the single colony's cost,
// and the determinism guarantee carries over unchanged; see README.md
// ("The island model") and DESIGN.md §8.
//
// # Cancellation and serving
//
// Colony runs accept a context: AntColonyContext and AntColonyRunContext
// (and their Island counterparts) stop within one ant walk per worker of
// the context being cancelled or its deadline expiring, returning an
// error that wraps ctx.Err(). A context that never fires changes nothing
// — determinism holds. On top of this, `daglayer serve`
// (internal/server) exposes layering as an HTTP daemon with an exact LRU
// result cache, bounded concurrency, per-request deadlines, an
// asynchronous /jobs queue, /healthz and /metrics; `daglayer batch`
// layers whole directories on the same job queue. See README.md
// ("Serving", "Batch mode").
//
// See examples/ for runnable programs, README.md for a feature matrix of
// the layerers, and DESIGN.md for the system inventory and
// per-experiment index.
package antlayer
