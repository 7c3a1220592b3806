package experiments

import (
	"bytes"
	"strings"
	"testing"

	"antlayer/internal/core"
)

// microOptions: single graph per group would still be 19 colonies per grid
// point; shrink further by sampling one graph per group and a tiny colony.
func microOptions() Options {
	opts := Options{Seed: 7, PerGroup: 1, DummyWidth: 1, ACO: core.DefaultParams()}
	opts.ACO.Ants = 3
	opts.ACO.Tours = 3
	opts.ACO.Workers = 1
	return opts
}

func TestAlphaBetaStudy(t *testing.T) {
	alphas := []float64{1, 3}
	betas := []float64{1, 3}
	cells, err := AlphaBetaStudy(microOptions(), alphas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Objective <= 0 || c.HPlusW <= 0 {
			t.Fatalf("cell %+v not populated", c)
		}
		// Objective and H+W are reciprocal views of the same quantity
		// only per-run; aggregated they must still be consistent in sign
		// and rough magnitude.
		if c.Objective > 1 {
			t.Fatalf("objective %g > 1", c.Objective)
		}
	}
	var buf bytes.Buffer
	if err := WriteAlphaBetaTable(&buf, cells, alphas, betas); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alpha\\beta") {
		t.Fatalf("table header missing:\n%s", buf.String())
	}
}

func TestNdWidthStudy(t *testing.T) {
	values := []float64{0.5, 1.0}
	cells, err := NdWidthStudy(microOptions(), values)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for i, c := range cells {
		if c.NdWidth != values[i] {
			t.Fatalf("cell %d nd_width = %g", i, c.NdWidth)
		}
		if c.WidthIncl <= 0 || c.Height <= 0 {
			t.Fatalf("cell %+v not populated", c)
		}
	}
	var buf bytes.Buffer
	if err := WriteNdWidthTable(&buf, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nd_width") {
		t.Fatal("table header missing")
	}
}

func TestAblations(t *testing.T) {
	opts := microOptions()
	sel, err := SelectionAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("selection variants = %d", len(sel))
	}
	str, err := StretchAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(str) != 2 {
		t.Fatalf("stretch variants = %d", len(str))
	}
	heur, err := HeuristicAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(heur) != 2 {
		t.Fatalf("heuristic variants = %d", len(heur))
	}
	// The objective-delta heuristic must dominate the literal layer-width
	// formula on H+W — the motivating observation of the reproduction.
	objHW := heur[0].Mean.Height + heur[0].Mean.WidthIncl
	litHW := heur[1].Mean.Height + heur[1].Mean.WidthIncl
	if objHW > litHW {
		t.Fatalf("objective heuristic H+W %.1f worse than literal %.1f", objHW, litHW)
	}
	var buf bytes.Buffer
	if err := WriteAblationTable(&buf, "t", heur); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "variant") {
		t.Fatal("ablation table header missing")
	}
}
