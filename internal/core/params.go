// Package core implements the paper's contribution: the Ant Colony
// Optimization layering algorithm for DAGs (Andreev, Healy, Nikolov,
// IPPS 2007; Algorithms 3, 4 and 5).
//
// The algorithm seeds the search with a Longest-Path Layering, stretches it
// by inserting empty layers between the LPL layers until the number of
// layers equals the number of vertices (§V-A), and then runs a colony of
// ants for a fixed number of tours. During a walk each ant visits the
// vertices in random order and reassigns every vertex to the layer of its
// span that maximises the random proportional rule
//
//	p(v, l) ∝ τ[v][l]^α · η[v][l]^β,   η[v][l] = 1 / W(l)
//
// where W(l) is the current width of layer l including the dummy vertices
// induced by edges crossing it. Layer widths are maintained incrementally
// per Algorithm 5. After each tour the pheromone matrix evaporates, the
// tour's best ant deposits pheromone on its assignments, and its layering
// becomes the base layering of the next tour. The objective maximised is
// f = 1/(H+W): compact layerings of small height plus width.
//
// Runs are cancellable: Layer, Run and Colony.RunContext take a
// context.Context and stop within one ant walk per worker of it being
// cancelled (see RunContext). A run that is not cancelled is unaffected by
// the context — the layering stays a pure, bitwise-deterministic function
// of Params.
package core

import (
	"fmt"
	"math"
)

// SelectionMode chooses how an ant picks a layer from the probabilities of
// the random proportional rule.
type SelectionMode int

const (
	// SelectPseudoRandom is the ACS pseudo-random proportional rule: with
	// probability Q0 the ant takes the layer maximising τ^α·η^β, otherwise
	// it samples proportionally. This is the default. The paper's
	// Algorithm 4 line 6 shows a bare max, but a pure argmax makes the
	// colony stagnate after two tours and leaves α and β without any
	// effect (argmax is invariant under the monotone exponents), which
	// contradicts the α/β sensitivity the paper reports in §VIII; some
	// exploration must have been present in the original implementation.
	SelectPseudoRandom SelectionMode = iota
	// SelectArgMax always picks the layer with the highest probability
	// (the literal reading of Algorithm 4). Kept for ablations.
	SelectArgMax
	// SelectRoulette always samples proportionally, the classic Ant
	// System behaviour. Kept for ablations.
	SelectRoulette
)

func (m SelectionMode) String() string {
	switch m {
	case SelectPseudoRandom:
		return "pseudo-random"
	case SelectArgMax:
		return "argmax"
	case SelectRoulette:
		return "roulette"
	default:
		return fmt.Sprintf("SelectionMode(%d)", int(m))
	}
}

// StretchMode chooses where the layers added to the LPL layering go.
type StretchMode int

const (
	// StretchBetween inserts the new layers uniformly between the LPL
	// layers (paper Fig. 2, the approach the paper argues for).
	StretchBetween StretchMode = iota
	// StretchEnds splits the new layers between the top and the bottom of
	// the LPL layering (paper Fig. 1, the rejected alternative; kept for
	// the ablation benchmarks).
	StretchEnds
)

func (m StretchMode) String() string {
	switch m {
	case StretchBetween:
		return "between"
	case StretchEnds:
		return "ends"
	default:
		return fmt.Sprintf("StretchMode(%d)", int(m))
	}
}

// HeuristicMode chooses the heuristic information η an ant uses.
type HeuristicMode int

const (
	// HeuristicObjective makes η the exact desirability of a reassignment
	// under the paper's objective: η = exp(-Δ) with Δ the change in H+W
	// the move causes (measured after empty-layer removal), including the
	// dummy-vertex bookkeeping of Algorithm 5. This is the default. The
	// paper's §IV-E requires ants to maintain exactly this information
	// ("calculate the number of dummy vertices a particular assignment
	// would cause", "update the values of the heuristic matrix to reflect
	// each new assignment"), and it is the only reading consistent with
	// the reported results: with the bare layer-width reciprocal the
	// colony drifts vertices across the stretched search space and the
	// dummy count explodes, contradicting Fig. 6 (the ant colony keeps
	// roughly the LPL dummy count). See DESIGN.md §4.
	HeuristicObjective HeuristicMode = iota
	// HeuristicLayerWidth is the literal formula of §IV-D, η = 1/W(l)
	// with the current layer width. Kept for the ablation benchmarks.
	HeuristicLayerWidth
)

func (m HeuristicMode) String() string {
	switch m {
	case HeuristicObjective:
		return "objective"
	case HeuristicLayerWidth:
		return "layer-width"
	default:
		return fmt.Sprintf("HeuristicMode(%d)", int(m))
	}
}

// Params configures a colony run. The zero value is not valid; start from
// DefaultParams.
type Params struct {
	// Ants is the colony size.
	Ants int
	// Tours is the number of tours (outermost loop of Algorithm 4). The
	// paper used 10 in its experiments.
	Tours int
	// Alpha weighs the pheromone trail and Beta the heuristic information
	// in the random proportional rule. The paper's tuning (§VIII) found
	// (α, β) = (3, 5) best but adopted (1, 3) for its better
	// runtime/quality trade-off; DefaultParams follows the adopted pair.
	Alpha, Beta float64
	// Rho is the pheromone evaporation rate in (0, 1].
	Rho float64
	// Tau0 is the initial pheromone on every (vertex, layer) coupling.
	Tau0 float64
	// Q scales the pheromone deposited by a tour's best ant: the deposit
	// is Q·f where f is the ant's objective value.
	Q float64
	// DummyWidth is the width nd_width of a dummy vertex (§V-A). The
	// paper's tuning chose 1.0.
	DummyWidth float64
	// Selection picks the layer-choice rule (see SelectionMode).
	Selection SelectionMode
	// Q0 is the exploitation probability of the pseudo-random
	// proportional rule; ignored by the other selection modes.
	Q0 float64
	// Stretch picks where the added layers go (paper: between).
	Stretch StretchMode
	// Heuristic picks the heuristic information (see HeuristicMode).
	Heuristic HeuristicMode
	// MaxLayers caps the stretched search space. Zero means the paper's
	// choice: as many layers as vertices.
	MaxLayers int
	// WidthBound, when positive, enforces a layer resource capacity: an
	// ant never moves a vertex onto a layer whose width (including the
	// dummy adjustments of the move) would exceed the bound. This is the
	// "appropriately defined neighbourhood" of §IV-C. When no layer of
	// the span qualifies the vertex stays put, so feasibility is never
	// lost. Zero disables the bound.
	WidthBound float64
	// TauMin and TauMax, when positive, clamp the pheromone matrix after
	// every update (the MAX-MIN Ant System extension of Stützle and Hoos,
	// listed by the paper's ACO reference [4]); they prevent the
	// stagnation §IV-D warns about for strong pheromone weighting. Zero
	// disables the respective bound. TauMin must not exceed TauMax.
	TauMin, TauMax float64
	// StopAfterStagnantTours ("stall tours"), when positive, ends the run
	// early once this many consecutive tours fail to improve the best
	// objective — the adaptive stopping rule suggested by the paper's
	// conclusion for taming the colony's running time, and the knob that
	// turns a warm start into actual wall-clock savings (a warmed colony
	// typically reaches its target in the first tours and then stalls).
	// Zero runs all Tours.
	StopAfterStagnantTours int
	// Warm, when non-nil, warm-starts the colony from a prior run's
	// exported State: the carried pheromone rows replace the flat Tau0
	// prior (renormalised per row and clamped to TauMin/TauMax), the
	// carried elite is deposited before tour 0, and — when it is still a
	// valid layering — becomes the incumbent and the base layering of
	// tour 1. See Colony.applyWarm for the exact rules. The state must
	// live in this graph's vertex index space; carry it across a graph
	// edit with MapByName + State.Remap first. Nil (the default) is a
	// cold start: the colony is bit-identical to one built before this
	// field existed. The warm run remains a pure function of (graph,
	// Params, Warm): same state, same delta, same seed — same bytes.
	Warm *State
	// ExportState asks Finalize to attach the colony's final State to
	// the Result, so the serving layer can cache it for the next warm
	// start. Off by default: exporting deep-copies the pheromone matrix.
	ExportState bool
	// Workers is the number of goroutines constructing ant tours
	// concurrently within a tour. Zero (the default) uses one worker per
	// available CPU (GOMAXPROCS); one runs the colony sequentially. The
	// result is bitwise-identical for a fixed Seed at any Workers value:
	// every ant's RNG is derived independently from (Seed, tour, ant
	// index), the pheromone matrix is frozen while a tour's ants walk,
	// and evaporation/deposit are applied after the pool's barrier.
	// Context cancellation (Colony.RunContext) is checked per ant walk on
	// every worker, so a cancelled colony stops within one walk per
	// worker regardless of this setting.
	Workers int
	// Seed seeds the run: all ant RNGs are derived from it. Runs with
	// equal Params are reproducible.
	Seed int64
}

// DefaultParams returns the configuration used for the paper's main
// experiments: 10 tours, α=1, β=3, unit dummy width, argmax selection and
// stretching between the LPL layers.
func DefaultParams() Params {
	return Params{
		Ants:       10,
		Tours:      10,
		Alpha:      1,
		Beta:       3,
		Rho:        0.5,
		Tau0:       1,
		Q:          1,
		DummyWidth: 1,
		Selection:  SelectPseudoRandom,
		Q0:         0.9,
		Stretch:    StretchBetween,
		Seed:       1,
	}
}

// FieldError is Validate's report of a field outside its bounds: the
// field's name, the rule it broke and the value it held.
type FieldError struct {
	Field string // e.g. "Ants"
	Rule  string // e.g. "must be >= 1"
	Value any
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("core: %s %s, got %v", e.Field, e.Rule, e.Value)
}

// Validate reports the first invalid field, as a *FieldError when one
// field alone breaks its bounds. Every float field must be finite before
// its bounds are checked: NaN passes every comparison, +Inf every lower
// bound.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Alpha", p.Alpha}, {"Beta", p.Beta}, {"Rho", p.Rho}, {"Tau0", p.Tau0}, {"Q", p.Q},
		{"DummyWidth", p.DummyWidth}, {"Q0", p.Q0}, {"WidthBound", p.WidthBound}, {"TauMin", p.TauMin}, {"TauMax", p.TauMax},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &FieldError{f.name, "must be finite", f.v}
		}
	}
	switch {
	case p.Ants < 1:
		return &FieldError{"Ants", "must be >= 1", p.Ants}
	case p.Tours < 1:
		return &FieldError{"Tours", "must be >= 1", p.Tours}
	case p.Alpha < 0:
		return &FieldError{"Alpha", "must be >= 0", p.Alpha}
	case p.Beta < 0:
		return &FieldError{"Beta", "must be >= 0", p.Beta}
	case p.Rho <= 0 || p.Rho > 1:
		return &FieldError{"Rho", "must be in (0,1]", p.Rho}
	case p.Tau0 <= 0:
		return &FieldError{"Tau0", "must be > 0", p.Tau0}
	case p.Q <= 0:
		return &FieldError{"Q", "must be > 0", p.Q}
	case p.DummyWidth <= 0:
		return &FieldError{"DummyWidth", "must be > 0", p.DummyWidth}
	case p.Selection != SelectPseudoRandom && p.Selection != SelectArgMax && p.Selection != SelectRoulette:
		return fmt.Errorf("core: unknown selection mode %d", int(p.Selection))
	case p.Q0 < 0 || p.Q0 > 1:
		return &FieldError{"Q0", "must be in [0,1]", p.Q0}
	case p.Stretch != StretchBetween && p.Stretch != StretchEnds:
		return fmt.Errorf("core: unknown stretch mode %d", int(p.Stretch))
	case p.Heuristic != HeuristicObjective && p.Heuristic != HeuristicLayerWidth:
		return fmt.Errorf("core: unknown heuristic mode %d", int(p.Heuristic))
	case p.MaxLayers < 0:
		return &FieldError{"MaxLayers", "must be >= 0", p.MaxLayers}
	case p.WidthBound < 0:
		return &FieldError{"WidthBound", "must be >= 0", p.WidthBound}
	case p.TauMin < 0 || p.TauMax < 0:
		return fmt.Errorf("core: TauMin/TauMax must be >= 0, got %g/%g", p.TauMin, p.TauMax)
	case p.TauMin > 0 && p.TauMax > 0 && p.TauMin > p.TauMax:
		return fmt.Errorf("core: TauMin %g exceeds TauMax %g", p.TauMin, p.TauMax)
	case p.StopAfterStagnantTours < 0:
		return &FieldError{"StopAfterStagnantTours", "must be >= 0", p.StopAfterStagnantTours}
	case p.Workers < 0:
		return &FieldError{"Workers", "must be >= 0", p.Workers}
	}
	return nil
}
