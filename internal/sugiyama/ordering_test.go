package sugiyama

import (
	"math/rand"
	"testing"

	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/layering"
	"antlayer/internal/longestpath"
)

// TestGreedySwitchMatchesOracle: the transpose-rule pass makes the swaps
// the recounting pass made — the same Order, Pos and crossing count — on
// proper layerings of random graphs and of a three-layer graph whose hub
// has degree 1,200 (600 predecessors, 600 successors), every layer of at
// most 100 vertices shuffled.
func TestGreedySwitchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	check := func(name string, g *dag.Graph, l *layering.Layering) {
		t.Helper()
		o := newOrdering(l)
		for _, row := range o.Order {
			if len(row) > 100 {
				continue // keeps the oracle's recounts affordable
			}
			rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
			for i, v := range row {
				o.Pos[v] = i
			}
		}
		cross := o.Crossings(g, l)
		want, got := o.clone(), o.clone()
		wantCross := oracleGreedySwitch(want, g, l, cross)
		var s scratch
		gotCross := got.greedySwitch(g, l, cross, &s)
		if gotCross != wantCross {
			t.Fatalf("%s: crossings %d, oracle %d", name, gotCross, wantCross)
		}
		if c := got.Crossings(g, l); c != gotCross {
			t.Fatalf("%s: switch reports %d crossings, recount %d", name, gotCross, c)
		}
		for i := range want.Order {
			for j := range want.Order[i] {
				if got.Order[i][j] != want.Order[i][j] {
					t.Fatalf("%s: layer %d differs from the oracle at %d", name, i+1, j)
				}
			}
		}
		for v := range want.Pos {
			if got.Pos[v] != want.Pos[v] {
				t.Fatalf("%s: Pos[%d] = %d, oracle %d", name, v, got.Pos[v], want.Pos[v])
			}
		}
	}
	for i := 0; i < 80; i++ {
		cfg := graphgen.DefaultConfig(4 + rng.Intn(60))
		if i%2 == 1 {
			cfg.EdgeFactor = 2.8
		}
		g, err := graphgen.Generate(cfg, rng)
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
		check("random", proper.Graph, proper.Layering)
	}

	// Layer 3 holds wide vertices, each a predecessor of the hub; layer 2
	// the hub and narrow-1 vertices with a few edges each; layer 1 wide
	// vertices, each a successor of the hub.
	const wide, narrow = 600, 12
	g := dag.New(2*wide + narrow)
	hub := 2 * wide
	assign := make([]int, g.N())
	for j := 0; j < wide; j++ {
		assign[j], assign[wide+j] = 1, 3
		g.MustAddEdge(wide+j, hub)
		g.MustAddEdge(hub, j)
	}
	for u := hub; u < g.N(); u++ {
		assign[u] = 2
		for k := 0; u != hub && k < 3; k++ {
			if a := wide + rng.Intn(wide); !g.HasEdge(a, u) {
				g.MustAddEdge(a, u)
			}
			if b := rng.Intn(wide); !g.HasEdge(u, b) {
				g.MustAddEdge(u, b)
			}
		}
	}
	check("hub", g, layering.FromAssignment(g, assign))
}
