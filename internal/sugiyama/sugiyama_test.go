package sugiyama

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/layering"
	"antlayer/internal/longestpath"
)

func TestMakeAcyclicOnAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	g, err := graphgen.Generate(graphgen.DefaultConfig(25), rng)
	if err != nil {
		t.Fatal(err)
	}
	res := MakeAcyclic(g)
	if len(res.Reversed) != 0 {
		t.Fatalf("acyclic input got %d reversals", len(res.Reversed))
	}
	if res.Graph != g {
		t.Fatal("acyclic input was copied, not returned as is")
	}
}

func TestMakeAcyclicBreaksCycles(t *testing.T) {
	g := dag.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	res := MakeAcyclic(g)
	if !res.Graph.IsAcyclic() {
		t.Fatal("result still cyclic")
	}
	if len(res.Reversed) == 0 {
		t.Fatal("no reversals recorded")
	}
	if res.Graph.M() != 3 {
		t.Fatalf("edge count changed: %d", res.Graph.M())
	}
	// The greedy heuristic should reverse exactly one edge of a triangle.
	if len(res.Reversed) != 1 {
		t.Fatalf("reversed %d edges, want 1", len(res.Reversed))
	}
}

func TestMakeAcyclicRandomDigraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 25; i++ {
		n := 4 + rng.Intn(30)
		g := dag.New(n)
		for tries := 0; tries < n*3; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		res := MakeAcyclic(g)
		if !res.Graph.IsAcyclic() {
			t.Fatal("result cyclic")
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatal(err)
		}
		// Every original edge is present in one direction or was a
		// duplicate collapse.
		for _, e := range g.Edges() {
			if !res.Graph.HasEdge(e.U, e.V) && !res.Graph.HasEdge(e.V, e.U) {
				t.Fatalf("edge (%d,%d) vanished", e.U, e.V)
			}
		}
	}
}

func TestMakeAcyclicTwoCycle(t *testing.T) {
	g := dag.New(2)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	res := MakeAcyclic(g)
	if !res.Graph.IsAcyclic() {
		t.Fatal("2-cycle not broken")
	}
	// One edge survives; the reversal of the other collapses into it.
	if res.Graph.M() != 1 {
		t.Fatalf("M = %d, want 1", res.Graph.M())
	}
}

// bruteCrossings counts crossings between adjacent layers by checking every
// edge pair.
func bruteCrossings(g *dag.Graph, l interface{ Layer(int) int }, o *Ordering) int {
	type edge struct{ ul, up, vl, vp int }
	var es []edge
	for _, e := range g.Edges() {
		es = append(es, edge{l.Layer(e.U), o.Pos[e.U], l.Layer(e.V), o.Pos[e.V]})
	}
	count := 0
	for i := 0; i < len(es); i++ {
		for j := i + 1; j < len(es); j++ {
			a, b := es[i], es[j]
			if a.ul != b.ul || a.vl != b.vl {
				continue
			}
			if (a.up-b.up)*(a.vp-b.vp) < 0 {
				count++
			}
		}
	}
	return count
}

func TestCrossingsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for i := 0; i < 20; i++ {
		g, err := graphgen.Generate(graphgen.DefaultConfig(5+rng.Intn(25)), rng)
		if err != nil {
			t.Fatal(err)
		}
		l, err := longestpath.Layer(g)
		if err != nil {
			t.Fatal(err)
		}
		proper, err := l.MakeProper(1)
		if err != nil {
			t.Fatal(err)
		}
		o := newOrdering(proper.Layering)
		got := o.Crossings(proper.Graph, proper.Layering)
		want := bruteCrossings(proper.Graph, proper.Layering, o)
		if got != want {
			t.Fatalf("Crossings = %d, brute force = %d", got, want)
		}
	}
}

func TestMinimizeCrossingsImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	worse, total := 0, 0
	for i := 0; i < 15; i++ {
		g, err := graphgen.Generate(graphgen.DefaultConfig(20+rng.Intn(30)), rng)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := longestpath.Layer(g)
		proper, err := l.MakeProper(1)
		if err != nil {
			t.Fatal(err)
		}
		before := newOrdering(proper.Layering).Crossings(proper.Graph, proper.Layering)
		_, after := MinimizeCrossingsWith(proper.Graph, proper.Layering, 4, Barycenter)
		if after > before {
			worse++
		}
		total++
	}
	if worse > 0 {
		t.Fatalf("MinimizeCrossingsWith worsened %d/%d graphs (must keep best seen)", worse, total)
	}
}

func TestCountInversions(t *testing.T) {
	cases := []struct {
		in   []int
		want int
	}{
		{nil, 0},
		{[]int{1}, 0},
		{[]int{1, 2, 3}, 0},
		{[]int{3, 2, 1}, 3},
		{[]int{2, 1, 3, 1}, 3},
		{[]int{5, 4, 3, 2, 1}, 10},
	}
	for _, c := range cases {
		if got := countInversions(c.in); got != c.want {
			t.Errorf("countInversions(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRunPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	g, err := graphgen.Generate(graphgen.DefaultConfig(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(LayererFunc(longestpath.Layer))
	d, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Height <= 0 || d.Width <= 0 {
		t.Fatalf("drawing H=%d W=%g", d.Height, d.Width)
	}
	if len(d.Edges) != g.M() {
		t.Fatalf("drawn edges = %d, want %d", len(d.Edges), g.M())
	}
	// Every original vertex appears exactly once among the nodes.
	seen := map[int]bool{}
	for _, nd := range d.Nodes {
		if nd.V < g.N() && !nd.Dummy {
			if seen[nd.V] {
				t.Fatalf("vertex %d drawn twice", nd.V)
			}
			seen[nd.V] = true
		}
	}
	if len(seen) != g.N() {
		t.Fatalf("drew %d real vertices, want %d", len(seen), g.N())
	}
	// Edge polylines are y-monotone (drawn downward).
	for _, e := range d.Edges {
		for i := 1; i < len(e.Points); i++ {
			if e.Points[i].Y <= e.Points[i-1].Y {
				t.Fatalf("edge (%d,%d) not drawn downward", e.From, e.To)
			}
		}
	}
}

func TestRunPipelineCyclicInput(t *testing.T) {
	g := dag.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0) // cycle
	d, err := Run(g, DefaultConfig(LayererFunc(longestpath.Layer)))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Reversed) == 0 {
		t.Fatal("no edges recorded as reversed")
	}
	// Reversed edges are drawn bottom-up.
	found := false
	for _, e := range d.Edges {
		if e.Reversed {
			found = true
			for i := 1; i < len(e.Points); i++ {
				if e.Points[i].Y >= e.Points[i-1].Y {
					t.Fatal("reversed edge not drawn upward")
				}
			}
		}
	}
	if !found {
		t.Fatal("no drawn edge marked reversed")
	}
}

func TestRunPipelineErrors(t *testing.T) {
	g := dag.New(2)
	g.MustAddEdge(1, 0)
	if _, err := Run(g, Config{}); err == nil {
		t.Fatal("missing layerer accepted")
	}
	// A layerer returning an invalid layering must be rejected.
	bad := LayererFunc(func(g *dag.Graph) (*layering.Layering, error) {
		assign := make([]int, g.N())
		for v := range assign {
			assign[v] = 1 // flat: violates every edge
		}
		return layering.FromAssignment(g, assign), nil
	})
	if _, err := Run(g, DefaultConfig(bad)); err == nil {
		t.Fatal("invalid layering accepted by pipeline")
	}
	// A failing layerer propagates its error.
	boom := LayererFunc(func(g *dag.Graph) (*layering.Layering, error) {
		return nil, errFailingLayerer
	})
	if _, err := Run(g, DefaultConfig(boom)); err == nil {
		t.Fatal("layerer error swallowed")
	}
}

var errFailingLayerer = errInjected{}

type errInjected struct{}

func (errInjected) Error() string { return "injected layerer failure" }

func TestWriteSVG(t *testing.T) {
	g := dag.New(3)
	g.SetLabel(0, "end <&>")
	g.MustAddEdge(2, 1)
	g.MustAddEdge(2, 0)
	d, err := Run(g, DefaultConfig(LayererFunc(longestpath.Layer)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(svg, "&lt;&amp;&gt;") {
		t.Fatal("labels not XML-escaped")
	}
	if strings.Count(svg, "<rect") != 3 {
		t.Fatalf("want 3 rects, got %d", strings.Count(svg, "<rect"))
	}
}

func TestWriteASCII(t *testing.T) {
	g := dag.New(2)
	g.MustAddEdge(1, 0)
	d, err := Run(g, DefaultConfig(LayererFunc(longestpath.Layer)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "L2") || !strings.Contains(out, "height=2") {
		t.Fatalf("ASCII output missing layers:\n%s", out)
	}
}

func TestNarrowLayeringSmallerArea(t *testing.T) {
	// A corpus graph drawn end to end through the pipeline puts all the
	// nodes of a layer on one y.
	rng := rand.New(rand.NewSource(143))
	g, err := graphgen.Generate(graphgen.DefaultConfig(60), rng)
	if err != nil {
		t.Fatal(err)
	}
	lplD, err := Run(g, DefaultConfig(LayererFunc(longestpath.Layer)))
	if err != nil {
		t.Fatal(err)
	}
	if len(lplD.Nodes) == 0 {
		t.Fatal("no drawing")
	}
	ys := map[int]float64{}
	for _, n := range lplD.Nodes {
		if y, ok := ys[n.Layer]; ok && y != n.Y {
			t.Fatal("layer drawn at two y positions")
		}
		ys[n.Layer] = n.Y
	}
}
