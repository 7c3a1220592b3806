package core

import (
	"math"
	"unsafe"
)

// State is the compact, serializable search state of a finished (or
// stepped) colony: the pheromone matrix, the best stretched-space
// assignment found and its objective. It is what warm-starting carries
// from one run to the next — POST /layer's warm cache, the island run
// frame, a client that knows its lineage — so, like island.Elite, it is
// wire-shaped: float64 and int fields round-trip bit-exactly through
// encoding/json, keeping a warm start bitwise-deterministic whether the
// state crossed a network or not.
//
// A State is meaningful only together with the graph it was exported
// from: Tau[v] is the pheromone row of vertex v, Assign[v] its layer in
// the exporting colony's stretched space of L layers. Carrying a state
// across a graph edit is Remap's job (with MapByName supplying the
// vertex correspondence); feeding it to a colony is Params.Warm.
type State struct {
	// L is the stretched layer count of the exporting colony's search
	// space — the width of every Tau row and the upper bound of Assign.
	L int `json:"l"`
	// Tau holds one pheromone row per vertex. A nil row means "no
	// information" (an added vertex after Remap): the warm colony keeps
	// its flat Tau0 prior there.
	Tau [][]float64 `json:"tau"`
	// Assign is the exporting colony's best stretched-space assignment
	// (1-based layers). After Remap, 0 marks a vertex with no carried
	// layer (an added vertex); the warm colony falls back to its own
	// LPL seed layer for it.
	Assign []int `json:"assign,omitempty"`
	// Objective is Assign's f = 1/(H+W), measured by the exporting run.
	Objective float64 `json:"objective,omitempty"`
}

// Clone returns a deep copy, so a cached State can be handed to a
// concurrent colony without aliasing.
func (s *State) Clone() *State {
	if s == nil {
		return nil
	}
	out := &State{L: s.L, Objective: s.Objective}
	if s.Tau != nil {
		out.Tau = make([][]float64, len(s.Tau))
		for v, row := range s.Tau {
			if row != nil {
				out.Tau[v] = append([]float64(nil), row...)
			}
		}
	}
	if s.Assign != nil {
		out.Assign = append([]int(nil), s.Assign...)
	}
	return out
}

// MemoryBytes estimates the state's resident size — the warm cache's
// eviction weight.
func (s *State) MemoryBytes() int64 {
	if s == nil {
		return 0
	}
	n := int64(64) // struct + slice headers
	for _, row := range s.Tau {
		n += 24 + 8*int64(len(row))
	}
	n += 8 * int64(len(s.Assign))
	return n
}

// ColonyMemoryBytes estimates the resident bytes one colony over an
// n-vertex graph allocates under p, so admission can refuse a request
// before anything is allocated. It counts two pheromone matrices of n
// rows by L layers (the colony's own and the State it exports or warm-
// starts from; L is n, or MaxLayers when larger), a third for the τ^α
// snapshot when Alpha ≠ 1, per ant its struct (which embeds the RNG
// register and the exp(−Δ) memo, about 9 KiB) plus its O(n + L) slices,
// and one TourStats of History per tour. It saturates at
// math.MaxInt64.
func ColonyMemoryBytes(n int, p Params) int64 {
	rows, layers := float64(n), float64(max(n, p.MaxLayers))
	matrices := 2.0
	if p.Alpha != 1 {
		matrices++
	}
	perAnt := float64(unsafe.Sizeof(ant{})) + 16*rows + 64*(layers+2)
	est := matrices*rows*(24+8*layers) + float64(max(p.Ants, 0))*perAnt +
		float64(max(p.Tours, 0))*float64(unsafe.Sizeof(TourStats{}))
	if est >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(est)
}

// MapByName builds the vertex correspondence between two graphs from
// their per-vertex name slices: mapping[newV] is the index of the vertex
// named newNames[newV] in oldNames, or -1 when the name is new. When a
// name appears more than once in oldNames the lowest index wins, so the
// mapping — and everything downstream of it — is deterministic.
func MapByName(oldNames, newNames []string) []int {
	byName := make(map[string]int, len(oldNames))
	for i, name := range oldNames {
		if _, ok := byName[name]; !ok {
			byName[name] = i
		}
	}
	mapping := make([]int, len(newNames))
	for v, name := range newNames {
		if i, ok := byName[name]; ok {
			mapping[v] = i
		} else {
			mapping[v] = -1
		}
	}
	return mapping
}

// Remap carries the state across a graph delta onto a graph of n
// vertices: mapping[newV] names the old vertex that newV corresponds to
// (-1 for an added vertex, whose row becomes nil and whose assignment
// becomes 0 — "no information"). Removed vertices simply have no entry
// in mapping, so their rows are dropped. Layer-count changes are the
// warm colony's business (NewColony pads a narrower row with Tau0 and
// ignores columns beyond its own L), so Remap copies rows verbatim.
// The result is a pure function of (state, mapping, n): carrying the
// same state across the same delta always yields the same bytes.
func (s *State) Remap(mapping []int, n int) *State {
	out := &State{L: s.L, Objective: s.Objective, Tau: make([][]float64, n)}
	if s.Assign != nil {
		out.Assign = make([]int, n)
	}
	for v := 0; v < n && v < len(mapping); v++ {
		old := mapping[v]
		if old < 0 || old >= len(s.Tau) {
			continue
		}
		if row := s.Tau[old]; row != nil {
			out.Tau[v] = append([]float64(nil), row...)
		}
		if out.Assign != nil && old < len(s.Assign) {
			out.Assign[v] = s.Assign[old]
		}
	}
	return out
}

// ExportState snapshots the colony's current search state: a deep copy
// of the pheromone matrix plus the best assignment so far and its
// objective. Exporting is valid at any point of an incremental run; the
// serving layer exports after Finalize, the island engine at the end of
// an epoch loop.
func (c *Colony) ExportState() *State {
	if c.g.N() == 0 {
		return &State{L: c.L}
	}
	tau := make([][]float64, len(c.tau))
	for v, row := range c.tau {
		tau[v] = append([]float64(nil), row...)
	}
	assign, obj := c.Best()
	return &State{L: c.L, Tau: tau, Assign: assign, Objective: obj}
}

// applyWarm seeds a fresh colony from Params.Warm, between the flat Tau0
// initialisation and the first tour. Three steps, all deterministic and
// all tolerant of a state whose dimensions disagree with the graph (the
// remapper produces exact shapes, but a hand-built state must not crash
// a colony):
//
//  1. Pheromone rows: every carried row overwrites the Tau0 prior
//     column-by-column — unchanged vertices keep their columns; a row
//     narrower than L (the space widened) keeps Tau0 in the new
//     columns; columns beyond L (the space narrowed) are clamped away.
//     Carried values are sanitised (non-finite or non-positive entries
//     fall back to Tau0) and the carried prefix is renormalised to mean
//     Tau0 — layer choice is row-local, so per-row scaling preserves
//     every preference the old run learned while restoring the scale
//     TauMin/TauMax and the deposit amounts were tuned for. The MAX-MIN
//     clamp then applies as after any update.
//  2. Elite deposit: the carried assignment (unmapped or out-of-range
//     vertices patched with the colony's own LPL seed layer) receives a
//     Q·objective deposit, exactly like a migrated elite.
//  3. Incumbent and base: when the patched elite is a valid layering
//     and scores at least as well as the stretched LPL seed, it becomes
//     the base layering of tour 1 — the warm run resumes from the old
//     run's best solution instead of re-deriving it, which is where the
//     tours-to-target saving comes from. Otherwise (the delta broke the
//     layering) the LPL seed stands and the warm information acts
//     through the pheromone bias alone.
func (c *Colony) applyWarm() {
	s := c.p.Warm
	if s == nil || c.g.N() == 0 {
		return
	}
	for v := range c.tau {
		if v >= len(s.Tau) {
			break
		}
		src := s.Tau[v]
		if len(src) == 0 {
			continue
		}
		dst := c.tau[v]
		n := len(dst)
		if len(src) < n {
			n = len(src)
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			val := src[i]
			if math.IsNaN(val) || math.IsInf(val, 0) || val <= 0 {
				val = c.p.Tau0
			}
			dst[i] = val
			sum += val
		}
		if mean := sum / float64(n); mean > 0 && !math.IsInf(mean, 0) {
			scale := c.p.Tau0 / mean
			for i := 0; i < n; i++ {
				dst[i] *= scale
			}
		}
	}
	c.clampPheromone()

	if len(s.Assign) == 0 || s.Objective <= 0 || math.IsNaN(s.Objective) || math.IsInf(s.Objective, 0) {
		return
	}
	elite := make([]int, c.g.N())
	for v := range elite {
		l := 0
		if v < len(s.Assign) {
			l = s.Assign[v]
		}
		if l < 1 || l > c.L {
			l = c.baseAssign[v]
		}
		elite[v] = l
	}
	amount := c.p.Q * s.Objective
	for v, l := range elite {
		c.tau[v][l-1] += amount
	}
	c.clampPheromone()

	if !c.validAssignment(elite) {
		return
	}
	if c.scoreAssignment(elite) >= c.scoreAssignment(c.baseAssign) {
		c.baseAssign = elite
		c.baseWidths = layerWidths(c.g, elite, c.L, c.p.DummyWidth)
	}
}

// validAssignment reports whether assign is a proper layering of the
// colony's graph in its stretched space: every layer in [1, L] and every
// edge pointing strictly downward (assign[U] > assign[V]).
func (c *Colony) validAssignment(assign []int) bool {
	if len(assign) != c.g.N() {
		return false
	}
	for _, l := range assign {
		if l < 1 || l > c.L {
			return false
		}
	}
	for _, e := range c.g.Edges() {
		if assign[e.U] <= assign[e.V] {
			return false
		}
	}
	return true
}

// scoreAssignment measures f = 1/(H+W) of an assignment through the same
// ant machinery ensureStarted scores the seed with, so warm-base
// selection and incumbent scoring use bit-identical arithmetic.
func (c *Colony) scoreAssignment(assign []int) float64 {
	widths := layerWidths(c.g, assign, c.L, c.p.DummyWidth)
	a := newAnt(c.g, &c.p, c.tau, c.L, assign, widths, 0)
	a.scoreWalk()
	return a.objective
}
