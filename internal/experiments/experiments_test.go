package experiments

import (
	"bytes"
	"strings"
	"testing"

	"antlayer/internal/core"
	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/layering"
)

// Short aliases for injected-failure test algorithms.
type (
	dagGraph         = dag.Graph
	layeringLayering = layering.Layering
)

func layeringFrom(g *dag.Graph, assign []int) *layering.Layering {
	return layering.FromAssignment(g, assign)
}

// tinyOptions keeps experiment tests fast: a 2-graph sample per group and a
// small colony, sequential so timing-based assertions measure per-call cost.
func tinyOptions() Options {
	opts := Options{Seed: 7, PerGroup: 2, DummyWidth: 1, ACO: core.DefaultParams()}
	opts.ACO.Ants = 4
	opts.ACO.Tours = 4
	opts.ACO.Workers = 1
	return opts
}

func TestRunProducesAllSeries(t *testing.T) {
	res, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != graphgen.GroupCount {
		t.Fatalf("groups = %d", len(res.X))
	}
	for _, name := range []string{NameLPL, NameLPLPL, NameMinWidth, NameMinWidthPL, NameAntColony} {
		means, ok := res.Mean[name]
		if !ok || len(means) != graphgen.GroupCount {
			t.Fatalf("series %q missing or short", name)
		}
		for gi, m := range means {
			if m.Height <= 0 || m.WidthIncl <= 0 {
				t.Fatalf("%s group %d: %+v", name, gi, m)
			}
			if m.WidthExcl > m.WidthIncl {
				t.Fatalf("%s group %d: widthExcl %g > widthIncl %g", name, gi, m.WidthExcl, m.WidthIncl)
			}
		}
	}
	if res.GraphsPerGroup[0] != 2 {
		t.Fatalf("sample size = %d", res.GraphsPerGroup[0])
	}
}

func TestFigures(t *testing.T) {
	res, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for n := 4; n <= 9; n++ {
		pair, err := res.Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range pair {
			if len(f.Series) != 3 {
				t.Fatalf("figure %d has %d series", n, len(f.Series))
			}
			if len(f.X) != graphgen.GroupCount {
				t.Fatalf("figure %d has %d x values", n, len(f.X))
			}
			var buf bytes.Buffer
			if err := f.WriteTable(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), NameAntColony) {
				t.Fatalf("figure %d table missing AntColony", n)
			}
		}
	}
	if _, err := res.Figure(3); err == nil {
		t.Fatal("figure 3 accepted")
	}
	if _, err := res.Figure(10); err == nil {
		t.Fatal("figure 10 accepted")
	}
}

func TestShapeChecksPass(t *testing.T) {
	// The qualitative relationships the paper reports must hold on the
	// synthetic corpus with a modest sample.
	// Sequential colony: the "faster than AntColony" timing checks compare
	// per-call wall clock and must not race a GOMAXPROCS pool.
	opts := Options{Seed: 7, PerGroup: 4, DummyWidth: 1, ACO: core.DefaultParams()}
	opts.ACO.Workers = 1
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.CheckShapes()
	if len(rep.Checks) < 10 {
		t.Fatalf("only %d checks", len(rep.Checks))
	}
	for _, c := range rep.Failed() {
		t.Errorf("[%s] %s failed: %s", c.Figure, c.Claim, c.Detail)
	}
}

func TestMeasureOneRejectsInvalid(t *testing.T) {
	bad := Algorithm{
		Name: "broken",
		Layer: func(g *dagGraph, _ int64) (*layeringLayering, error) {
			assign := make([]int, g.N())
			for i := range assign {
				assign[i] = 1
			}
			return layeringFrom(g, assign), nil
		},
	}
	groups, err := graphgen.CorpusSample(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := groups[0].Graphs[0]
	if _, err := MeasureOne(bad, g, 0, 1); err == nil {
		t.Fatal("invalid layering accepted")
	}
}

func TestRunAlgorithmsPropagatesErrors(t *testing.T) {
	failing := Algorithm{
		Name: "fail",
		Layer: func(g *dagGraph, _ int64) (*layeringLayering, error) {
			return nil, errBoom{}
		},
	}
	if _, err := RunAlgorithms([]Algorithm{failing}, tinyOptions()); err == nil {
		t.Fatal("error not propagated")
	}
	// Errors surface from parallel evaluation too.
	opts := tinyOptions()
	opts.Workers = 4
	if _, err := RunAlgorithms([]Algorithm{failing}, opts); err == nil {
		t.Fatal("parallel error not propagated")
	}
}

func TestRunParallelDeterministic(t *testing.T) {
	seq := tinyOptions()
	par := tinyOptions()
	par.Workers = 4
	a, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	for name, sa := range a.Mean {
		sb := b.Mean[name]
		for gi := range sa {
			// Everything except the timing must agree exactly.
			x, y := sa[gi], sb[gi]
			x.Millis, y.Millis = 0, 0
			if x != y {
				t.Fatalf("%s group %d differs between sequential and parallel: %+v vs %+v", name, gi, x, y)
			}
		}
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestFamilySensitivity(t *testing.T) {
	// The colony's never-worse-than-LPL guarantee holds across corpus
	// families, not just the default sparse profile.
	for _, fam := range []graphgen.Family{graphgen.Trees, graphgen.Dense} {
		opts := tinyOptions()
		opts.Family = fam
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("%v: %v", fam, err)
		}
		for gi := range res.X {
			lpl := res.Mean[NameLPL][gi]
			ac := res.Mean[NameAntColony][gi]
			if ac.Height+ac.WidthIncl > lpl.Height+lpl.WidthIncl+1e-9 {
				t.Fatalf("%v group %d: ACO H+W %.2f worse than LPL %.2f",
					fam, gi, ac.Height+ac.WidthIncl, lpl.Height+lpl.WidthIncl)
			}
		}
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.DummyWidth != 1 {
		t.Fatalf("DummyWidth = %g", o.DummyWidth)
	}
	if o.ACO.Tours == 0 {
		t.Fatal("ACO not defaulted")
	}
	if o.ACO.DummyWidth != o.DummyWidth {
		t.Fatal("ACO dummy width not synced")
	}
}
