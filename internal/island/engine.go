package island

import (
	"context"
	"fmt"
	"sync"

	"antlayer/internal/core"
	"antlayer/internal/dag"
	"antlayer/internal/layering"
)

// Elite is one island's contribution to an epoch barrier: its best
// stretched-space assignment so far and the objective that earned it. The
// struct is wire-shaped (the shard transport ships it as JSON verbatim);
// int and float64 fields round-trip bit-exactly through encoding/json, so
// a migrated elite deposits the same pheromone on the far side of a
// network as it would in process.
type Elite struct {
	// Island is the emitting island's global ring index.
	Island int `json:"island"`
	// Assign is the island's best layer assignment so far, in the
	// stretched search space (one 1-based layer per vertex).
	Assign []int `json:"assign,omitempty"`
	// Objective is the assignment's f = 1/(H+W).
	Objective float64 `json:"objective"`
	// Done reports that the island has finished its run (tour budget
	// exhausted or the stagnation rule fired); its elite is final.
	Done bool `json:"done,omitempty"`
}

// Migrator owns the epoch barrier and the elite exchange of an
// archipelago run — the seam that decides whether the islands live in one
// process (Ring) or are sharded across machines (internal/shard). The
// Engine on either side of the seam is identical, which is what keeps the
// distributed archipelago bitwise-identical to the in-process one.
type Migrator interface {
	// Exchange submits the local islands' elites for one epoch and blocks
	// until every island of the archipelago — local or not — has reached
	// the barrier. It returns the elites to absorb (incoming[j] is
	// deposited into the j-th local island; empty means no deposit this
	// epoch, e.g. a single-island archipelago) and cont, which reports
	// whether any island anywhere is still live. cont == false ends the
	// run with no deposit, matching the in-process loop, which breaks
	// before migrating once every island is done.
	Exchange(ctx context.Context, epoch int, local []Elite) (incoming []Elite, cont bool, err error)
}

// Ring is the classic unidirectional elite ring over all K islands of the
// archipelago: island i's elite emigrates to island (i+1) mod K; a
// single-island ring exchanges nothing (an island never deposits its own
// elite onto itself). Exchange is pure computation — the epoch barrier
// has already fired by the time it runs: the Engine's WaitGroup in
// process, the shard coordinator's barrier across processes.
type Ring struct {
	k int
}

// NewRing returns the ring migrator for an archipelago of k islands.
func NewRing(k int) *Ring { return &Ring{k: k} }

// Exchange implements Migrator over the full archipelago: local must hold
// every island's elite in ring order.
func (r *Ring) Exchange(_ context.Context, _ int, local []Elite) ([]Elite, bool, error) {
	if len(local) != r.k {
		return nil, false, fmt.Errorf("island: ring of %d islands got %d elites", r.k, len(local))
	}
	cont := false
	for _, e := range local {
		if !e.Done {
			cont = true
			break
		}
	}
	if !cont {
		return nil, false, nil
	}
	if r.k == 1 {
		return nil, true, nil
	}
	incoming := make([]Elite, r.k)
	for i := range incoming {
		incoming[i] = local[(i-1+r.k)%r.k]
	}
	return incoming, true, nil
}

// Report is the serializable outcome of one island, emitted by
// Engine.Finalize and reassembled into a Result by Assemble. Like Elite
// it is wire-shaped: every field survives a JSON round trip bit-exactly,
// so a coordinator can rebuild the winning layering from a worker's
// report byte-identically to a local Finalize.
type Report struct {
	// Island is the global ring index.
	Island int `json:"island"`
	// Seed is the island's derived colony seed.
	Seed int64 `json:"seed"`
	// Objective is the island's best f = 1/(H+W).
	Objective float64 `json:"objective"`
	// BestTour is the island-local tour that found its best walk (0 = the
	// LPL seed stood).
	BestTour int `json:"best_tour"`
	// ToursRun counts the tours the island executed.
	ToursRun int `json:"tours_run"`
	// Assign is the normalized layer assignment of the island's best
	// layering (empty layers removed) and Height/Width its metrics at the
	// run's DummyWidth.
	Assign []int   `json:"assign"`
	Height int     `json:"height"`
	Width  float64 `json:"width"`
	// History holds the island's per-tour statistics.
	History []core.TourStats `json:"history,omitempty"`
	// State is the island's final search state, present only when the
	// run's Colony.ExportState asked for it. Like every other field it
	// round-trips through JSON bit-exactly, so a distributed run's
	// winning state warm-starts the next run byte-identically to an
	// in-process one.
	State *core.State `json:"state,omitempty"`
}

// Engine is the pure epoch engine: the slice of an archipelago's islands
// that lives in this process. It steps its islands in tour slices of
// MigrationInterval, emits their elites at each barrier, absorbs foreign
// elites through core.Colony.DepositElite, and finalizes into Reports.
// Everything topological — who talks to whom, and when the archipelago as
// a whole is done — lives behind the Migrator seam; the Engine never
// assumes its islands are the whole ring.
type Engine struct {
	g        *dag.Graph
	p        Params
	local    []int // global indices of the islands this engine owns
	colonies []*core.Colony
	seeds    []int64
	done     []bool
}

// NewEngine builds the colonies for the given global island indices.
// Island i's colony seed is core.SubSeed(p.Colony.Seed, i) regardless of
// which engine (process) hosts it, so any partition of the ring over any
// number of engines walks the very same ants.
func NewEngine(g *dag.Graph, p Params, local []int) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(local))
	for _, i := range local {
		if i < 0 || i >= p.Islands {
			return nil, fmt.Errorf("island: local island %d outside ring [0,%d)", i, p.Islands)
		}
		if seen[i] {
			return nil, fmt.Errorf("island: local island %d listed twice", i)
		}
		seen[i] = true
	}
	e := &Engine{
		g:        g,
		p:        p,
		local:    append([]int(nil), local...),
		colonies: make([]*core.Colony, len(local)),
		seeds:    make([]int64, len(local)),
		done:     make([]bool, len(local)),
	}
	for j, i := range e.local {
		cp := p.Colony
		cp.Seed = core.SubSeed(p.Colony.Seed, i)
		e.seeds[j] = cp.Seed
		c, err := core.NewColony(g, cp)
		if err != nil {
			return nil, err
		}
		e.colonies[j] = c
	}
	return e, nil
}

// Step runs one epoch: every live local island advances MigrationInterval
// tours, concurrently — each colony owns all its state and its internal
// worker pool is already schedule-independent — and the WaitGroup is the
// local half of the epoch barrier. It returns every local island's elite
// (done islands keep emitting their final elite so the ring stays fed
// until the whole archipelago finishes). Errors are reported for the
// lowest-index island so the message does not depend on which goroutine
// lost the race to a cancelled context.
func (e *Engine) Step(ctx context.Context) ([]Elite, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(e.local))
	for j := range e.colonies {
		if e.done[j] {
			continue
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			e.done[j], errs[j] = e.colonies[j].StepContext(ctx, e.p.MigrationInterval)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("island %d: %w", e.local[j], err)
		}
	}
	elites := make([]Elite, len(e.local))
	for j, c := range e.colonies {
		assign, obj := c.Best()
		elites[j] = Elite{Island: e.local[j], Assign: assign, Objective: obj, Done: e.done[j]}
	}
	return elites, nil
}

// Absorb deposits incoming[j] into the j-th local island. Islands that
// already stopped receive no deposit — their matrix is dead weight — but
// still occupy their slot so positions line up. An empty slice (no
// migration this epoch) is a no-op.
func (e *Engine) Absorb(incoming []Elite) error {
	if len(incoming) == 0 {
		return nil
	}
	if len(incoming) != len(e.local) {
		return fmt.Errorf("island: %d incoming elites for %d local islands", len(incoming), len(e.local))
	}
	for j, c := range e.colonies {
		if e.done[j] {
			continue
		}
		src := incoming[j]
		if err := c.DepositElite(src.Assign, src.Objective); err != nil {
			return fmt.Errorf("island %d: migration: %w", e.local[j], err)
		}
	}
	return nil
}

// Finalize normalizes every local island's best layering into its Report,
// in local order. Call it once, after the epoch loop is over.
func (e *Engine) Finalize() ([]Report, error) {
	reports := make([]Report, len(e.local))
	for j, c := range e.colonies {
		r, err := c.Finalize()
		if err != nil {
			return nil, fmt.Errorf("island %d: %w", e.local[j], err)
		}
		reports[j] = Report{
			Island:    e.local[j],
			Seed:      e.seeds[j],
			Objective: r.Objective,
			BestTour:  r.BestTour,
			ToursRun:  len(r.History),
			Assign:    r.Layering.Assignment(),
			Height:    r.Height,
			Width:     r.Width,
			History:   r.History,
			State:     r.State,
		}
	}
	return reports, nil
}

// Drive runs the epoch loop over an engine and a migrator: step the local
// islands, exchange elites at the barrier, absorb the incoming ones,
// until the migrator reports the archipelago is globally done. It returns
// how many epochs ended in a migration (an exchange that actually fed the
// ring — single-island archipelagos never migrate).
func Drive(ctx context.Context, e *Engine, m Migrator) (migrations int, err error) {
	for epoch := 1; ; epoch++ {
		elites, err := e.Step(ctx)
		if err != nil {
			return migrations, err
		}
		incoming, cont, err := m.Exchange(ctx, epoch, elites)
		if err != nil {
			return migrations, err
		}
		if !cont {
			return migrations, nil
		}
		if err := e.Absorb(incoming); err != nil {
			return migrations, err
		}
		if len(incoming) > 0 {
			migrations++
		}
	}
}

// Assemble reassembles a Result from the complete set of island reports,
// in ring order (reports[i].Island must equal i), under the run's
// parameters (p.Colony.DummyWidth weighs the dummy vertices). It is the
// one place the winner is chosen — highest objective, ties to the lowest
// ring index — for the in-process and the distributed archipelago alike.
// Because reports may have crossed a network, the winning layering is
// revalidated and its Height/Width are recomputed from the assignment
// rather than trusted from the wire (the recomputation runs the same
// code path as the worker's Finalize over an identical layering, so the
// values are bit-identical when the report is honest). The Objective is
// necessarily trusted: it was measured in the stretched search space,
// which normalization has already collapsed.
func Assemble(g *dag.Graph, p Params, reports []Report, migrations int) (*Result, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("island: no island reports to assemble")
	}
	res := &Result{Migrations: migrations, PerIsland: make([]IslandStats, len(reports))}
	best := -1
	for i := range reports {
		r := &reports[i]
		if r.Island != i {
			return nil, fmt.Errorf("island: report %d is for island %d; want the full ring in order", i, r.Island)
		}
		res.PerIsland[i] = IslandStats{
			Island:    r.Island,
			Seed:      r.Seed,
			Objective: r.Objective,
			BestTour:  r.BestTour,
			ToursRun:  r.ToursRun,
		}
		if best < 0 || r.Objective > res.Objective {
			best = i
			l := layering.FromAssignment(g, append([]int(nil), r.Assign...))
			if err := l.Validate(); err != nil {
				return nil, fmt.Errorf("island %d: invalid reported layering: %w", r.Island, err)
			}
			res.Result = core.Result{
				Layering:  l,
				Objective: r.Objective,
				Height:    l.Height(),
				Width:     l.WidthIncludingDummies(p.Colony.DummyWidth),
				BestTour:  r.BestTour,
				History:   r.History,
				// The winning island's state is the one the next warm
				// start resumes from — it is the matrix that produced
				// the served layering.
				State: r.State,
			}
		}
	}
	res.BestIsland = best
	return res, nil
}
