// Package sugiyama implements the hierarchical drawing framework the paper
// situates its layering step in (§I): cycle removal, layering (pluggable —
// this is where the ACO layering slots in), dummy-vertex insertion,
// crossing minimisation by barycenter sweeps, x-coordinate assignment and
// ASCII/SVG rendering.
package sugiyama

import (
	"antlayer/internal/dag"
)

// AcyclicResult is the outcome of cycle removal: an acyclic graph over the
// same vertices, plus the set of original edges that were reversed to break
// cycles.
type AcyclicResult struct {
	// Graph holds every original edge in exactly one direction. It is the
	// input graph itself when that was already acyclic.
	Graph *dag.Graph
	// Reversed holds edges in their *original* orientation (u, v); the
	// acyclic graph contains them as (v, u).
	Reversed []dag.Edge
}

// MakeAcyclic removes cycles with the Eades–Lin–Smyth greedy heuristic,
// which computes a vertex sequence minimising (heuristically) the number of
// backward edges and reverses those. An acyclic input is returned as the
// result's Graph, not copied, with no reversals. Self-loops cannot occur
// (the graph type rejects them).
func MakeAcyclic(g *dag.Graph) *AcyclicResult {
	if g.IsAcyclic() {
		return &AcyclicResult{Graph: g}
	}
	order := greedyFASOrder(g)
	pos := make([]int, g.N())
	for i, v := range order {
		pos[v] = i
	}
	out := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		out.SetWidth(v, g.Width(v))
		out.SetLabel(v, g.Label(v))
	}
	var reversed []dag.Edge
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if pos[u] > pos[v] {
			// Backward edge: reverse it. Drop it if the reversal already
			// exists (parallel opposite edges collapse).
			if !out.HasEdge(v, u) {
				out.MustAddEdge(v, u)
			}
			reversed = append(reversed, e)
			continue
		}
		if !out.HasEdge(u, v) {
			out.MustAddEdge(u, v)
		}
	}
	return &AcyclicResult{Graph: out, Reversed: reversed}
}

// greedyFASOrder computes the Eades–Lin–Smyth vertex sequence: sinks are
// appended to the tail, sources to the head, and otherwise the vertex
// maximising outdeg-indeg moves to the head. Edges from head-side to
// tail-side of the sequence are "forward".
func greedyFASOrder(g *dag.Graph) []int {
	n := g.N()
	outdeg := make([]int, n)
	indeg := make([]int, n)
	removed := make([]bool, n)
	for v := 0; v < n; v++ {
		outdeg[v] = g.OutDegree(v)
		indeg[v] = g.InDegree(v)
	}
	head := make([]int, 0, n)
	tail := make([]int, 0, n) // built in reverse
	remaining := n

	remove := func(v int) {
		removed[v] = true
		remaining--
		for _, w := range g.Succ(v) {
			if !removed[w] {
				indeg[w]--
			}
		}
		for _, u := range g.Pred(v) {
			if !removed[u] {
				outdeg[u]--
			}
		}
	}

	for remaining > 0 {
		progress := true
		for progress {
			progress = false
			for v := 0; v < n; v++ {
				if !removed[v] && outdeg[v] == 0 {
					tail = append(tail, v)
					remove(v)
					progress = true
				}
			}
			for v := 0; v < n; v++ {
				if !removed[v] && indeg[v] == 0 {
					head = append(head, v)
					remove(v)
					progress = true
				}
			}
		}
		if remaining == 0 {
			break
		}
		best, bestDelta := -1, 0
		for v := 0; v < n; v++ {
			if removed[v] {
				continue
			}
			d := outdeg[v] - indeg[v]
			if best == -1 || d > bestDelta {
				best, bestDelta = v, d
			}
		}
		head = append(head, best)
		remove(best)
	}
	// order = head ++ reverse(tail)
	order := head
	for i := len(tail) - 1; i >= 0; i-- {
		order = append(order, tail[i])
	}
	return order
}
