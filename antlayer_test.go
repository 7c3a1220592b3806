package antlayer

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"antlayer/internal/graphgen"
)

// buildDemo constructs the quickstart dependency DAG.
func buildDemo(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(6)
	g.MustAddEdge(5, 4)
	g.MustAddEdge(5, 3)
	g.MustAddEdge(4, 2)
	g.MustAddEdge(3, 2)
	g.MustAddEdge(2, 1)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(5, 0)
	return g
}

func TestAllLayerersProduceValidLayerings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layerers := map[string]Layerer{
		"lpl":          LongestPath(),
		"lpl+pl":       WithPromotion(LongestPath()),
		"minwidth":     MinWidth(MinWidthParams{UBW: 2, C: 2, DummyWidth: 1}),
		"minwidthbest": MinWidthBest(1),
		"cg":           CoffmanGraham(3),
		"aco":          AntColonyContext(context.Background(), DefaultACOParams()),
		"aco+pl":       WithPromotion(AntColonyContext(context.Background(), DefaultACOParams())),
	}
	for i := 0; i < 5; i++ {
		g, err := graphgen.Generate(graphgen.DefaultConfig(10+10*i), rng)
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range layerers {
			lay, err := l.Layer(g)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := lay.Validate(); err != nil {
				t.Fatalf("%s produced invalid layering: %v", name, err)
			}
		}
	}
}

func TestAntColonyRunHistory(t *testing.T) {
	g := buildDemo(t)
	p := DefaultACOParams()
	p.Tours = 5
	res, err := AntColonyRunContext(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 5 {
		t.Fatalf("history = %d tours", len(res.History))
	}
	if res.Layering == nil || res.Layering.Validate() != nil {
		t.Fatal("bad result layering")
	}
}

func TestPromoteFacade(t *testing.T) {
	g := buildDemo(t)
	l, err := LongestPath().Layer(g)
	if err != nil {
		t.Fatal(err)
	}
	improved := Promote(l)
	if improved.DummyCount() > l.DummyCount() {
		t.Fatal("Promote increased dummies")
	}
}

func TestDrawFacade(t *testing.T) {
	g := buildDemo(t)
	d, err := Draw(g, LongestPath(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var svg, ascii bytes.Buffer
	if err := d.WriteSVG(&svg); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteASCII(&ascii); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Fatal("no SVG output")
	}
	cfg := PipelineConfig{DummyWidth: 0.5, OrderingRounds: 2, HSpacing: 1, VSpacing: 1}
	if _, err := Draw(g, LongestPath(), &cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDOTFacadeRoundTrip(t *testing.T) {
	g := buildDemo(t)
	g.SetLabel(0, "sink")
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "demo"); err != nil {
		t.Fatal(err)
	}
	h, names, err := ReadDOT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d", h.N(), h.M())
	}
	if len(names) != h.N() {
		t.Fatalf("names = %d", len(names))
	}
	if _, _, err := ReadDOT(strings.NewReader("not dot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEndToEndMetricsShape(t *testing.T) {
	// Integration: on a wide bipartite-ish graph the colony must not be
	// wider than LPL (incl. dummies), the core claim of the paper.
	g := graphgen.CompleteBipartite(3, 9)
	lpl, err := LongestPath().Layer(g)
	if err != nil {
		t.Fatal(err)
	}
	aco, err := AntColonyContext(context.Background(), DefaultACOParams()).Layer(g)
	if err != nil {
		t.Fatal(err)
	}
	lm := lpl.ComputeMetrics(1)
	am := aco.ComputeMetrics(1)
	if am.WidthIncl > lm.WidthIncl {
		t.Fatalf("ACO width %g > LPL width %g", am.WidthIncl, lm.WidthIncl)
	}
	if float64(am.Height)+am.WidthIncl > float64(lm.Height)+lm.WidthIncl {
		t.Fatal("ACO H+W worse than LPL")
	}
}
