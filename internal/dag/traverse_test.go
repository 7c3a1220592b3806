package dag

import (
	"errors"
	"math/rand"
	"testing"
)

func TestTopologicalOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.N())
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.U] >= pos[e.V] {
			t.Fatalf("edge (%d,%d) violates order %v", e.U, e.V, order)
		}
	}
}

func TestTopologicalOrderDeterministic(t *testing.T) {
	// Independent vertices must come out in id order.
	g := New(5)
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want identity", order)
		}
	}
}

func TestTopologicalOrderCycle(t *testing.T) {
	g := New(3)
	mustEdges(t, g, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})
	if _, err := g.TopologicalOrder(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("cycle: err = %v, want ErrCyclic", err)
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic true for cycle")
	}
}

func TestLongestPathToSink(t *testing.T) {
	g := diamond(t)
	d, err := g.LongestPathToSink()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2}
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("LongestPathToSink[%d] = %d, want %d", v, d[v], want[v])
		}
	}
}

func TestLongestPathCycleError(t *testing.T) {
	g := New(2)
	mustEdges(t, g, [2]int{0, 1}, [2]int{1, 0})
	if _, err := g.LongestPathToSink(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
}

func TestLongestPathSumProperty(t *testing.T) {
	// On any path graph, toSink(v) + fromSource(v) == pathlen; the
	// distance from the source is the distance to the sink of the
	// reversed graph.
	g := New(6)
	for i := 5; i > 0; i-- {
		g.MustAddEdge(i, i-1)
	}
	toSink, _ := g.LongestPathToSink()
	fromSrc, _ := g.Reverse().LongestPathToSink()
	for v := 0; v < 6; v++ {
		if toSink[v]+fromSrc[v] != 5 {
			t.Fatalf("vertex %d: %d+%d != 5", v, toSink[v], fromSrc[v])
		}
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := New(6)
	mustEdges(t, g, [2]int{1, 0}, [2]int{2, 1}, [2]int{4, 3})
	comps := g.WeaklyConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("comp 0 = %v", comps[0])
	}
	if len(comps[1]) != 2 || comps[1][0] != 3 {
		t.Fatalf("comp 1 = %v", comps[1])
	}
	if len(comps[2]) != 1 || comps[2][0] != 5 {
		t.Fatalf("comp 2 = %v", comps[2])
	}
	if g.IsWeaklyConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !diamond(t).IsWeaklyConnected() {
		t.Fatal("diamond reported disconnected")
	}
	if !New(0).IsWeaklyConnected() {
		t.Fatal("empty graph reported disconnected")
	}
}

func TestReachability(t *testing.T) {
	g := diamond(t)
	if g.ReachableFrom(0)[3] {
		t.Fatal("phantom path 0->3")
	}
	r := g.ReachableFrom(3)
	for v := 0; v < 4; v++ {
		if !r[v] {
			t.Fatalf("vertex %d not reachable from source", v)
		}
	}
}

func TestTransitiveReduction(t *testing.T) {
	// Diamond plus the shortcut 3->0, which the reduction must remove.
	g := diamond(t)
	g.MustAddEdge(3, 0)
	red, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if red.HasEdge(3, 0) {
		t.Fatal("reduction kept transitive edge (3,0)")
	}
	if red.M() != 4 {
		t.Fatalf("reduction M = %d, want 4", red.M())
	}
	// Reachability must be preserved.
	for u := 0; u < g.N(); u++ {
		ro, rr := g.ReachableFrom(u), red.ReachableFrom(u)
		for v := range ro {
			if ro[v] != rr[v] {
				t.Fatalf("reachability changed at (%d,%d)", u, v)
			}
		}
	}
}

func TestTransitiveReductionCyclic(t *testing.T) {
	g := New(2)
	mustEdges(t, g, [2]int{0, 1}, [2]int{1, 0})
	if _, err := g.TransitiveReduction(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
}

func TestTransitiveReductionPreservesReachabilityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		n := 3 + rng.Intn(15)
		g := randomDAG(rng, n, rng.Intn(n*2))
		red, err := g.TransitiveReduction()
		if err != nil {
			t.Fatal(err)
		}
		if red.M() > g.M() {
			t.Fatal("reduction added edges")
		}
		for u := 0; u < n; u++ {
			ro, rr := g.ReachableFrom(u), red.ReachableFrom(u)
			for v := range ro {
				if ro[v] != rr[v] {
					t.Fatalf("n=%d: reachability changed at (%d,%d)", n, u, v)
				}
			}
		}
	}
}

func TestTopologicalOrderRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(40)
		g := randomDAG(rng, n, rng.Intn(n*2))
		order, err := g.TopologicalOrder()
		if err != nil {
			t.Fatalf("random DAG reported cyclic: %v", err)
		}
		if len(order) != n {
			t.Fatalf("order length %d, want %d", len(order), n)
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.U] >= pos[e.V] {
				t.Fatal("topological order violated")
			}
		}
	}
}

func TestIntHeap(t *testing.T) {
	h := &intHeap{}
	in := []int{5, 3, 8, 1, 9, 2, 7}
	for _, x := range in {
		h.push(x)
	}
	prev := -1
	for h.len() > 0 {
		x := h.pop()
		if x < prev {
			t.Fatalf("heap pop out of order: %d after %d", x, prev)
		}
		prev = x
	}
}
