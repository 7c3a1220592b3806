package sugiyama

import (
	"cmp"
	"slices"

	"antlayer/internal/dag"
	"antlayer/internal/layering"
)

// Ordering holds the vertex order of every layer of a proper layering.
// Order[i] lists the vertices of layer i+1 from left to right; Pos[v] is
// the index of v within its layer.
type Ordering struct {
	Order [][]int
	Pos   []int
}

// newOrdering builds the initial ordering (vertices ascending within each
// layer).
func newOrdering(l *layering.Layering) *Ordering {
	o := &Ordering{Order: l.Layers(), Pos: make([]int, l.Graph().N())}
	for _, layer := range o.Order {
		for i, v := range layer {
			o.Pos[v] = i
		}
	}
	return o
}

// scratch holds the buffers one MinimizeCrossingsWith call reuses across its
// sweeps, crossing counts and switch pass, so that their cost is the
// graph's size rather than the allocator's.
type scratch struct {
	ints []int   // neighbour positions
	tree []int   // crossingsBetween's Fenwick tree
	keys []keyed // sortByNeighbours' sort keys
	runs []run   // greedySwitch's neighbour runs
}

// Crossings counts edge crossings between all pairs of adjacent layers for
// a proper layering under the ordering.
func (o *Ordering) Crossings(g *dag.Graph, l *layering.Layering) int {
	var s scratch
	return o.crossings(g, l, &s)
}

func (o *Ordering) crossings(g *dag.Graph, l *layering.Layering, s *scratch) int {
	total := 0
	for li := 2; li <= len(o.Order); li++ {
		total += o.crossingsBetween(g, l, li, s)
	}
	return total
}

// crossingsBetween counts crossings of edges from layer li (upper) to layer
// li-1. Walking the upper layer left to right, each edge crosses the
// edges of the upper vertices already passed whose lower endpoints lie
// strictly right of its own; a Fenwick tree over the lower layer's
// positions counts those in O(log width) per edge.
func (o *Ordering) crossingsBetween(g *dag.Graph, l *layering.Layering, li int, s *scratch) int {
	width := len(o.Order[li-2])
	tree := slices.Grow(s.tree[:0], width+1)[:width+1]
	clear(tree)
	s.tree = tree
	total, passed := 0, 0
	for _, u := range o.Order[li-1] {
		succ := g.Succ(u)
		for _, v := range succ {
			if l.Layer(v) == li-1 {
				atMost := 0 // passed endpoints at positions ≤ pos(v)
				for i := o.Pos[v] + 1; i > 0; i -= i & -i {
					atMost += tree[i]
				}
				total += passed - atMost
			}
		}
		for _, v := range succ {
			if l.Layer(v) == li-1 {
				for i := o.Pos[v] + 1; i <= width; i += i & -i {
					tree[i]++
				}
				passed++
			}
		}
	}
	return total
}

// appendPositions appends the positions of the vertices of ws that lie on
// layer li.
func (o *Ordering) appendPositions(dst []int, l *layering.Layering, ws []int, li int) []int {
	for _, w := range ws {
		if l.Layer(w) == li {
			dst = append(dst, o.Pos[w])
		}
	}
	return dst
}

// OrderingMethod selects the key used when reordering a layer during the
// crossing-minimisation sweeps.
type OrderingMethod int

const (
	// Barycenter orders by the mean neighbour position (Sugiyama et al.).
	Barycenter OrderingMethod = iota
	// Median orders by the median neighbour position (Eades–Wormald);
	// median keys are more robust against outlier neighbours.
	Median
)

// MinimizeCrossingsWith runs alternating down/up sweeps on a proper
// layering, reordering each layer by the given method and keeping the
// best ordering seen, for the given number of rounds (one round = one
// down sweep + one up sweep). After the sweeps a greedy-switch pass
// exchanges adjacent vertices whenever that strictly reduces crossings,
// which cleans up the local optima barycenter/median sweeps are known to
// leave behind. It returns the best ordering and its crossing count.
func MinimizeCrossingsWith(g *dag.Graph, l *layering.Layering, rounds int, method OrderingMethod) (*Ordering, int) {
	var s scratch
	o := newOrdering(l)
	best := o.clone()
	bestCross := o.crossings(g, l, &s)
	for r := 0; r < rounds && bestCross > 0; r++ {
		// Downward sweep: order each layer by its neighbours on the layer
		// above (vertices on higher layer numbers).
		for li := len(o.Order) - 1; li >= 1; li-- {
			o.sortByNeighbours(g, l, li, li+1, method, &s)
		}
		if c := o.crossings(g, l, &s); c < bestCross {
			bestCross = c
			best.copyFrom(o)
		}
		// Upward sweep.
		for li := 2; li <= len(o.Order); li++ {
			o.sortByNeighbours(g, l, li, li-1, method, &s)
		}
		if c := o.crossings(g, l, &s); c < bestCross {
			bestCross = c
			best.copyFrom(o)
		}
	}
	if bestCross > 0 {
		bestCross = best.greedySwitch(g, l, bestCross, &s)
	}
	return best, bestCross
}

// greedySwitch repeatedly exchanges adjacent vertices within a layer when
// the exchange strictly reduces the total crossing count, until a full
// pass finds no improving swap, and returns the resulting crossing count.
// Passes are bounded to keep worst cases predictable.
//
// Each candidate is decided by the transpose rule of Gansner et al.
// (1993): exchanging adjacent u and v changes only the crossings between
// an edge of u and an edge of v in the two gaps next to their layer, so it
// changes the total by c(v,u) − c(u,v), where c(u,v) counts the neighbour
// pairs (a of u, b of v) on one adjacent layer with pos(a) > pos(b). The
// pass therefore makes exactly the swaps a recount of both gaps would,
// at the cost of merging the pair's sorted neighbour positions.
func (o *Ordering) greedySwitch(g *dag.Graph, l *layering.Layering, current int, s *scratch) int {
	for pass := 0; pass < 8; pass++ {
		improved := false
		for li := 1; li <= len(o.Order); li++ {
			if len(o.Order[li-1]) < 2 {
				continue
			}
			runs := o.neighbourRuns(g, l, li, s)
			ps := s.ints
			for i := 0; i+1 < len(runs); i++ {
				u, v := runs[i], runs[i+1]
				cuv := pairsAbove(ps[u.lo:u.mid], ps[v.lo:v.mid]) + pairsAbove(ps[u.mid:u.hi], ps[v.mid:v.hi])
				cvu := pairsAbove(ps[v.lo:v.mid], ps[u.lo:u.mid]) + pairsAbove(ps[v.mid:v.hi], ps[u.mid:u.hi])
				if cvu < cuv {
					o.swap(li, i)
					runs[i], runs[i+1] = v, u
					current += cvu - cuv
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return current
}

// run locates one vertex's neighbour positions in scratch.ints: its
// successors on the layer below in [lo, mid), its predecessors on the
// layer above in [mid, hi), each ascending.
type run struct{ lo, mid, hi int }

// neighbourRuns lists the runs of the vertices of layer li in layer order.
func (o *Ordering) neighbourRuns(g *dag.Graph, l *layering.Layering, li int, s *scratch) []run {
	ps, runs := s.ints[:0], s.runs[:0]
	for _, v := range o.Order[li-1] {
		r := run{lo: len(ps)}
		ps = o.appendPositions(ps, l, g.Succ(v), li-1)
		r.mid = len(ps)
		ps = o.appendPositions(ps, l, g.Pred(v), li+1)
		r.hi = len(ps)
		slices.Sort(ps[r.lo:r.mid])
		slices.Sort(ps[r.mid:r.hi])
		runs = append(runs, r)
	}
	s.ints, s.runs = ps, runs
	return runs
}

// pairsAbove counts the pairs (x in a, y in b) with x > y; a and b are
// ascending.
func pairsAbove(a, b []int) int {
	n, j := 0, 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		n += j
	}
	return n
}

// swap exchanges positions i and i+1 of layer li (1-based).
func (o *Ordering) swap(li, i int) {
	row := o.Order[li-1]
	row[i], row[i+1] = row[i+1], row[i]
	o.Pos[row[i]] = i
	o.Pos[row[i+1]] = i + 1
}

// keyed is a vertex with its sweep sort key.
type keyed struct {
	v   int
	key float64
}

// sortByNeighbours reorders layer `li` by the barycenter or median of each
// vertex's neighbour positions on layer `ref` (both 1-based). Vertices
// without neighbours on ref keep their relative position via a stable sort
// on their current position.
func (o *Ordering) sortByNeighbours(g *dag.Graph, l *layering.Layering, li, ref int, method OrderingMethod, s *scratch) {
	layer := o.Order[li-1]
	ks := s.keys[:0]
	for _, v := range layer {
		positions := o.appendPositions(s.ints[:0], l, g.Succ(v), ref)
		positions = o.appendPositions(positions, l, g.Pred(v), ref)
		s.ints = positions
		if len(positions) == 0 {
			ks = append(ks, keyed{v, float64(o.Pos[v])})
			continue
		}
		ks = append(ks, keyed{v, neighbourKey(positions, method)})
	}
	s.keys = ks
	byKey := func(a, b keyed) int { return cmp.Compare(a.key, b.key) }
	if slices.IsSortedFunc(ks, byKey) {
		return // the stable sort would keep the layer as it is
	}
	slices.SortStableFunc(ks, byKey)
	for i, k := range ks {
		layer[i] = k.v
		o.Pos[k.v] = i
	}
}

// neighbourKey reduces neighbour positions to an ordering key.
func neighbourKey(positions []int, method OrderingMethod) float64 {
	if method == Median {
		slices.Sort(positions)
		mid := len(positions) / 2
		if len(positions)%2 == 1 {
			return float64(positions[mid])
		}
		return (float64(positions[mid-1]) + float64(positions[mid])) / 2
	}
	sum := 0
	for _, p := range positions {
		sum += p
	}
	return float64(sum) / float64(len(positions))
}

func (o *Ordering) clone() *Ordering {
	c := &Ordering{
		Order: make([][]int, len(o.Order)),
		Pos:   append([]int(nil), o.Pos...),
	}
	for i := range o.Order {
		c.Order[i] = append([]int(nil), o.Order[i]...)
	}
	return c
}

// copyFrom overwrites o with src, an ordering of the same layers.
func (o *Ordering) copyFrom(src *Ordering) {
	copy(o.Pos, src.Pos)
	for i := range o.Order {
		copy(o.Order[i], src.Order[i])
	}
}
