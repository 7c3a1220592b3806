package dag

// TopologicalOrder returns a topological ordering of the vertices using
// Kahn's algorithm: whenever (u, v) is an edge, u appears before v. It
// returns ErrCyclic if the graph contains a directed cycle.
//
// The order is deterministic: among ready vertices the one with the smallest
// identifier is chosen first.
func (g *Graph) TopologicalOrder() ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = g.InDegree(v)
	}
	// A min-ordered ready "heap" implemented as a simple binary heap keyed
	// by vertex id keeps the order deterministic without O(n^2) scans.
	h := &intHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			h.push(v)
		}
	}
	order := make([]int, 0, n)
	for h.len() > 0 {
		u := h.pop()
		order = append(order, u)
		for _, v := range g.Succ(u) {
			indeg[v]--
			if indeg[v] == 0 {
				h.push(v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopologicalOrder()
	return err == nil
}

// LongestPathToSink returns, for every vertex, the maximum number of edges
// on any directed path from the vertex to a sink. Sinks have value 0. It
// returns ErrCyclic on cyclic input.
//
// In the layering convention of this repository (edges point from higher
// layers to lower layers), LongestPathToSink(v)+1 is exactly the layer the
// Longest-Path Layering algorithm assigns to v.
func (g *Graph) LongestPathToSink() ([]int, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	dist := make([]int, g.N())
	// Process in reverse topological order so successors are final.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0
		for _, w := range g.Succ(v) {
			if dist[w]+1 > best {
				best = dist[w] + 1
			}
		}
		dist[v] = best
	}
	return dist, nil
}

// WeaklyConnectedComponents returns the vertex sets of the weakly connected
// components (treating edges as undirected), each sorted ascending, in order
// of their smallest vertex.
func (g *Graph) WeaklyConnectedComponents() [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	stack := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(comps)
		comp[s] = id
		stack = append(stack[:0], s)
		members := []int{}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			for _, w := range g.Succ(v) {
				if comp[w] == -1 {
					comp[w] = id
					stack = append(stack, w)
				}
			}
			for _, w := range g.Pred(v) {
				if comp[w] == -1 {
					comp[w] = id
					stack = append(stack, w)
				}
			}
		}
		// Members were collected in DFS order; sort ascending.
		insertionSort(members)
		comps = append(comps, members)
	}
	return comps
}

// IsWeaklyConnected reports whether the graph forms a single weakly
// connected component (the empty graph is considered connected).
func (g *Graph) IsWeaklyConnected() bool {
	return g.N() == 0 || len(g.WeaklyConnectedComponents()) == 1
}

// ReachableFrom returns the set of vertices reachable from v by directed
// paths, including v itself, as a boolean membership slice.
func (g *Graph) ReachableFrom(v int) []bool {
	seen := make([]bool, g.N())
	stack := []int{v}
	seen[v] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Succ(u) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// TransitiveReduction returns a copy of the graph with every edge (u, v)
// removed when an alternative directed path u -> ... -> v of length >= 2
// exists. The input must be acyclic.
//
// The reduction is useful for corpus generation: layering behaviour is
// dominated by the reduced edge set, and reduced graphs match the sparse
// profile of the graph-drawing benchmark sets.
func (g *Graph) TransitiveReduction() (*Graph, error) {
	if !g.IsAcyclic() {
		return nil, ErrCyclic
	}
	red := New(g.N())
	for v := 0; v < g.N(); v++ {
		red.SetWidth(v, g.widths[v])
		red.SetLabel(v, g.labels[v])
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Succ(u) {
			if !g.hasLongPath(u, v) {
				red.MustAddEdge(u, v)
			}
		}
	}
	return red, nil
}

// hasLongPath reports whether a path u -> ... -> v with at least two edges
// exists.
func (g *Graph) hasLongPath(u, v int) bool {
	seen := make([]bool, g.N())
	var stack []int
	for _, w := range g.Succ(u) {
		if w != v && !seen[w] {
			seen[w] = true
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Succ(x) {
			if w == v {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// insertionSort sorts small int slices in place without pulling in sort for
// hot paths that deal with short adjacency-derived slices.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// intHeap is a minimal binary min-heap of ints used by TopologicalOrder.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
