// Package coffmangraham implements the Coffman–Graham width-bounded
// layering algorithm ("Optimal scheduling for two processor systems", Acta
// Informatica 1972 — reference [2] of the paper).
//
// Coffman–Graham bounds the number of *real* vertices per layer by W and is
// provided as an additional baseline for the ablation benchmarks: it
// targets the same width/height trade-off the ACO layering negotiates, but
// ignores dummy vertices entirely, which is exactly the weakness the paper
// motivates.
//
// Phase 1 labels vertices: a vertex becomes labelable once all its
// successors are labeled, and among labelable vertices the one whose
// decreasing sequence of successor labels is lexicographically smallest is
// labeled next. Phase 2 fills layers bottom-up (layer 1 first), placing at
// most W vertices per layer and starting a new layer whenever a vertex has
// a successor on the current layer.
package coffmangraham

import (
	"fmt"
	"slices"

	"antlayer/internal/dag"
	"antlayer/internal/layering"
)

// Layer computes the Coffman–Graham layering of g with at most width real
// vertices per layer. The input must be acyclic; width must be >= 1.
//
// The classic algorithm assumes a transitively reduced input; callers that
// want the textbook behaviour can pass g.TransitiveReduction(). Layer works
// on any DAG.
func Layer(g *dag.Graph, width int) (*layering.Layering, error) {
	if width < 1 {
		return nil, fmt.Errorf("coffmangraham: width must be >= 1, got %d", width)
	}
	if !g.IsAcyclic() {
		return nil, dag.ErrCyclic
	}
	n := g.N()
	labels := labelVertices(g)

	// Phase 2: fill layers from the sinks up. A vertex is ready when all
	// its successors are placed. Among ready vertices pick the one with the
	// highest label.
	assign := make([]int, n)
	placedCount := 0
	remaining := make([]int, n)
	for v := 0; v < n; v++ {
		remaining[v] = g.OutDegree(v)
	}
	currentLayer := 1
	currentCount := 0
	for placedCount < n {
		pick := -1
		for v := 0; v < n; v++ {
			if assign[v] != 0 || remaining[v] != 0 {
				continue
			}
			// A successor on the current layer forces v to a higher layer;
			// it is not ready for this layer.
			if hasSuccOnLayer(g, assign, v, currentLayer) {
				continue
			}
			if pick == -1 || labels[v] > labels[pick] {
				pick = v
			}
		}
		if pick == -1 || currentCount == width {
			currentLayer++
			currentCount = 0
			continue
		}
		assign[pick] = currentLayer
		currentCount++
		placedCount++
		for _, u := range g.Pred(pick) {
			remaining[u]--
		}
	}
	l := layering.FromAssignment(g, assign)
	l.Normalize()
	return l, nil
}

func hasSuccOnLayer(g *dag.Graph, assign []int, v, layer int) bool {
	for _, w := range g.Succ(v) {
		if assign[w] == layer {
			return true
		}
	}
	return false
}

// labelVertices computes Coffman–Graham labels 1..n. Vertices whose
// successors are all labeled compete; the winner is the vertex whose
// decreasing successor-label sequence is lexicographically smallest.
func labelVertices(g *dag.Graph) []int {
	n := g.N()
	labels := make([]int, n) // 0 = unlabeled
	unlabeledSucc := make([]int, n)
	for v := 0; v < n; v++ {
		unlabeledSucc[v] = g.OutDegree(v)
	}
	for next := 1; next <= n; next++ {
		pick := -1
		var pickSeq []int
		for v := 0; v < n; v++ {
			if labels[v] != 0 || unlabeledSucc[v] != 0 {
				continue
			}
			seq := succLabelsDesc(g, labels, v)
			if pick == -1 || lexLess(seq, pickSeq) {
				pick, pickSeq = v, seq
			}
		}
		labels[pick] = next
		for _, u := range g.Pred(pick) {
			unlabeledSucc[u]--
		}
	}
	return labels
}

func succLabelsDesc(g *dag.Graph, labels []int, v int) []int {
	seq := make([]int, 0, g.OutDegree(v))
	for _, w := range g.Succ(v) {
		seq = append(seq, labels[w])
	}
	slices.Sort(seq)
	slices.Reverse(seq)
	return seq
}

// lexLess reports whether a < b lexicographically, with a missing element
// (shorter sequence) ordering before any present element.
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
