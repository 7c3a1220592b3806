package exact

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"antlayer/internal/core"
	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/longestpath"
)

func TestMinimizeDiamond(t *testing.T) {
	g := dag.New(4)
	g.MustAddEdge(3, 2)
	g.MustAddEdge(3, 1)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(1, 0)
	res, err := Minimize(g, Options{DummyWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Fatal("search not exhausted")
	}
	// Optimum: the LPL layering itself (H=3, W=2).
	if res.Objective != 5 {
		t.Fatalf("objective = %g, want 5", res.Objective)
	}
	if err := res.Layering.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeEdgeless(t *testing.T) {
	// 6 isolated vertices: optimum spreads them into a 2x3 or 3x2 block
	// (H+W = 5).
	g := dag.New(6)
	res, err := Minimize(g, Options{DummyWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 5 {
		t.Fatalf("objective = %g, want 5", res.Objective)
	}
}

func TestMinimizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(5)
		g := dag.New(n)
		for tries := 0; tries < n*2; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u < v {
				u, v = v, u
			}
			if !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		res, err := Minimize(g, Options{DummyWidth: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proven {
			t.Fatal("not proven on tiny instance")
		}
		want := bruteMinObjective(g, 1)
		if res.Objective != want {
			t.Fatalf("n=%d m=%d: exact %g, brute force %g", n, g.M(), res.Objective, want)
		}
	}
}

// bruteMinObjective enumerates every assignment into layers 1..n.
func bruteMinObjective(g *dag.Graph, wd float64) float64 {
	n := g.N()
	assign := make([]int, n)
	best := 1e18
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			for _, e := range g.Edges() {
				if assign[e.U] <= assign[e.V] {
					return
				}
			}
			if obj := objective(g, assign, wd); obj < best {
				best = obj
			}
			return
		}
		for l := 1; l <= n; l++ {
			assign[v] = l
			rec(v + 1)
		}
	}
	rec(0)
	return best
}

func TestMinimizeLowerBoundsHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for trial := 0; trial < 8; trial++ {
		g, err := graphgen.Generate(graphgen.Config{N: 9, EdgeFactor: 1.3, Connected: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Minimize(g, Options{DummyWidth: 1})
		if err != nil {
			t.Fatal(err)
		}
		lpl, _ := longestpath.Layer(g)
		lplObj := float64(lpl.Height()) + lpl.WidthIncludingDummies(1)
		if res.Objective > lplObj+1e-9 {
			t.Fatalf("exact %g worse than LPL %g", res.Objective, lplObj)
		}
		aco, err := core.Layer(context.Background(), g, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if g := Gap(res, aco, 1); g < -1e-9 {
			t.Fatalf("negative gap %g: heuristic beat the proven optimum", g)
		}
	}
}

// TestColonyBetweenOptimumAndLPL is the differential property of the
// colony on small graphs: at every seed and worker count, and again after
// a 3-tour warm start from the cold run's exported State, the colony's
// H+W (dummy width 1) is never below the proven optimum and never above
// the LPL layering the colony is seeded with. The branch and bound is
// exponential, and a few n=10 graphs take it millions of nodes; a graph
// it cannot prove within the node limit is skipped, and at least 100
// must be proven.
func TestColonyBetweenOptimumAndLPL(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	ctx := context.Background()
	proven := 0
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(9)
		g, err := graphgen.Generate(graphgen.Config{N: n, EdgeFactor: 1 + 1.5*rng.Float64(), Connected: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Minimize(g, Options{DummyWidth: 1, NodeLimit: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Proven {
			continue
		}
		proven++
		lpl, _ := longestpath.Layer(g)
		lplHW := float64(lpl.Height()) + lpl.WidthIncludingDummies(1)
		check := func(run string, res *core.Result) {
			t.Helper()
			hw := float64(res.Height) + res.Width
			if hw < opt.Objective-1e-9 || hw > lplHW+1e-9 {
				t.Fatalf("trial %d (n=%d m=%d), %s: H+W %g outside [optimum %g, LPL %g]",
					trial, n, g.M(), run, hw, opt.Objective, lplHW)
			}
		}
		for _, seed := range []int64{int64(trial), int64(1000 + trial)} {
			for _, workers := range []int{1, 3} {
				p := core.DefaultParams()
				p.Seed, p.Workers, p.ExportState = seed, workers, true
				cold, err := core.Run(ctx, g, p)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("cold seed=%d workers=%d", seed, workers), cold)
				p.Warm, p.Tours, p.ExportState = cold.State, 3, false
				warm, err := core.Run(ctx, g, p)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("warm seed=%d workers=%d", seed, workers), warm)
			}
		}
	}
	if proven < 100 {
		t.Fatalf("only %d of 120 optima proven within the node limit, want >= 100", proven)
	}
	t.Logf("%d graphs proven and checked", proven)
}

func TestMinimizeTooLarge(t *testing.T) {
	if _, err := Minimize(dag.New(MaxVertices+1), Options{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestMinimizeCyclic(t *testing.T) {
	g := dag.New(2)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	if _, err := Minimize(g, Options{}); err == nil {
		t.Fatal("cyclic input accepted")
	}
}

func TestMinimizeNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	g, err := graphgen.Generate(graphgen.Config{N: 12, EdgeFactor: 1.2, Connected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(g, Options{DummyWidth: 1, NodeLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Fatal("claimed proven despite node limit")
	}
	// The incumbent (LPL) is still a valid answer.
	if err := res.Layering.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeEmptyAndSingle(t *testing.T) {
	res, err := Minimize(dag.New(0), Options{})
	if err != nil || !res.Proven {
		t.Fatalf("empty: %v proven=%v", err, res.Proven)
	}
	res, err = Minimize(dag.New(1), Options{DummyWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 2 { // H=1, W=1
		t.Fatalf("single vertex objective = %g", res.Objective)
	}
}
