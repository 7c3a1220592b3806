// Package island implements an island-model multi-colony search on top of
// the paper's ant colony (package core).
//
// K independent colonies ("islands") search the same stretched layer
// space concurrently, each from its own SplitMix64-derived master seed.
// Every MigrationInterval tours the islands synchronize at a barrier and
// each island's elite layering (its best-so-far assignment) migrates to
// its ring neighbour, seeding the neighbour's pheromone matrix through
// core.Colony.DepositElite — the classic coarse-grained parallel ACO
// topology (a unidirectional ring with elitist emigrants). Migration
// biases a neighbour towards a good foreign solution without overwriting
// its own search state, so the islands cooperate while their pheromone
// populations stay diverse.
//
// The package is split along the paper's natural parallel boundary:
//
//   - Engine is the pure epoch engine — it steps a set of islands in
//     tour slices, emits their elites at each barrier, absorbs foreign
//     elites, and finalizes per-island Reports. It never knows the ring
//     topology or where the other islands live.
//   - Migrator owns the barrier and the elite exchange. Ring is the elite
//     ring itself, which Run drives in process; internal/shard lifts the
//     exchange over a network so the archipelago spans processes — each
//     worker process drives one Engine against a network Migrator, and
//     the coordinator turns the same Ring over the elites they report.
//
// Determinism: the run is a pure function of (graph, Params). Island i's
// colony seed is core.SubSeed(Seed, i); every epoch is a barrier (all
// islands finish their tour slice before any elite is read); elites are
// exchanged in ring order at the barrier and deposited only there. No RNG
// stream, pheromone matrix or scratch buffer is ever shared between
// islands, so the result is bitwise-identical at any
// Params.Colony.Workers setting, under any goroutine schedule, and — the
// distributed extension — for any partition of the islands over any
// number of worker processes: the per-island work is the same wherever
// the island is hosted, and the barrier makes every epoch's exchange see
// the same elites. See DESIGN.md §10.
package island

import (
	"context"
	"fmt"

	"antlayer/internal/core"
	"antlayer/internal/dag"
	"antlayer/internal/layering"
)

// Params configures an island run. The zero value is not valid; start
// from DefaultParams.
type Params struct {
	// Colony configures every island's colony: each island runs
	// Colony.Tours tours with Colony.Ants ants, so an island run spends
	// Islands × Tours × Ants walks in total. Colony.Seed is the master
	// seed the per-island seeds are derived from. Colony.Warm, when set,
	// warm-starts every island from the same carried state (each island
	// copies the values out; the State itself is never mutated), and
	// Colony.ExportState makes each Report carry its island's final
	// state — both ride the run frame unchanged when the archipelago is
	// sharded over a worker fleet, so distributed runs warm-start
	// byte-identically to in-process ones.
	Colony core.Params
	// Islands is the number of colonies K (>= 1). With K = 1 the run
	// degenerates to a single colony and no migration happens.
	Islands int
	// MigrationInterval is how many tours every island runs between two
	// migration barriers (>= 1). An interval at or above Colony.Tours
	// means the islands never exchange anything — independent restarts.
	MigrationInterval int
}

// DefaultParams returns the paper's colony defaults wrapped in a 4-island
// ring migrating every 2 tours.
func DefaultParams() Params {
	return Params{Colony: core.DefaultParams(), Islands: 4, MigrationInterval: 2}
}

// Validate reports the first invalid field.
func (p Params) Validate() error {
	if err := p.Colony.Validate(); err != nil {
		return err
	}
	if p.Islands < 1 {
		return fmt.Errorf("island: Islands must be >= 1, got %d", p.Islands)
	}
	if p.MigrationInterval < 1 {
		return fmt.Errorf("island: MigrationInterval must be >= 1, got %d", p.MigrationInterval)
	}
	return nil
}

// IslandStats summarises one island's contribution to a run.
type IslandStats struct {
	// Island is the island's index (0-based ring position).
	Island int
	// Seed is the island's derived colony seed.
	Seed int64
	// Objective is the island's best f = 1/(H+W).
	Objective float64
	// BestTour is the island-local tour that found its best walk (0 = the
	// LPL seed stood).
	BestTour int
	// ToursRun counts the tours the island executed (early stopping can
	// end an island before the others).
	ToursRun int
}

// Result is the outcome of an island run: the winning island's colony
// result plus per-island statistics.
type Result struct {
	core.Result
	// BestIsland is the index of the island that produced Layering; ties
	// on the objective go to the lowest index, so the value is as
	// deterministic as the layering itself.
	BestIsland int
	// Migrations counts the migration barriers at which elites moved.
	Migrations int
	// PerIsland holds one entry per island, in ring order.
	PerIsland []IslandStats
}

// Run executes an island-model search over g under ctx and returns the
// best layering found by any island: an Engine over all p.Islands
// islands, driven against the in-process Ring. Cancellation follows
// core.Colony.RunContext: the first cancelled island aborts the whole
// run with an error wrapping ctx.Err().
func Run(ctx context.Context, g *dag.Graph, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	local := make([]int, p.Islands)
	for i := range local {
		local[i] = i
	}
	e, err := NewEngine(g, p, local)
	if err != nil {
		return nil, err
	}
	migrations, err := Drive(ctx, e, NewRing(p.Islands))
	if err != nil {
		return nil, err
	}
	reports, err := e.Finalize()
	if err != nil {
		return nil, err
	}
	return Assemble(g, p, reports, migrations)
}

// Layer is the package-level convenience mirroring core.Layer: run the
// archipelago and return only the layering.
func Layer(ctx context.Context, g *dag.Graph, p Params) (*layering.Layering, error) {
	res, err := Run(ctx, g, p)
	if err != nil {
		return nil, err
	}
	return res.Layering, nil
}
