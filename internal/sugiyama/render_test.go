package sugiyama

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/longestpath"
)

// TestWriteSVGMatchesFmt: the append-based writer writes the bytes of the
// fmt-based writer it replaced (oracleWriteSVG) on corpus drawings and on
// hand-built drawings with hostile labels, widths and coordinates.
func TestWriteSVGMatchesFmt(t *testing.T) {
	var drawings []*Drawing
	for _, f := range []graphgen.Family{graphgen.Sparse, graphgen.Dense, graphgen.PipelineFamily} {
		groups, err := graphgen.CorpusFamily(11, 1, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, grp := range groups {
			for _, g := range grp.Graphs {
				d, err := Run(g, DefaultConfig(LayererFunc(longestpath.Layer)))
				if err != nil {
					t.Fatal(err)
				}
				drawings = append(drawings, d)
			}
		}
	}
	labelled := dag.New(4)
	for v, label := range []string{`a&b<c>"d"`, "ünïcödé → ✓", "", "&amp;"} {
		labelled.SetLabel(v, label)
	}
	labelled.MustAddEdge(0, 1)
	labelled.MustAddEdge(1, 2)
	labelled.MustAddEdge(2, 0) // drawn reversed
	labelled.MustAddEdge(0, 3)
	d, err := Run(labelled, DefaultConfig(LayererFunc(longestpath.Layer)))
	if err != nil {
		t.Fatal(err)
	}
	drawings = append(drawings, d, &Drawing{})

	subnormal := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	for _, w := range []float64{0, 1e-7, 1, 1e21, 1e300} {
		drawings = append(drawings, hostileDrawing(0, 0, w, 1, 2))
	}
	for _, c := range [][2]float64{
		// x·24 and y·24 on exact ties of the first decimal.
		{0.25 / 24, 0.75 / 24}, {1.25 / 24, 2.75 / 24}, {1e-3, 0.0625},
		{negZero, negZero}, {subnormal, -subnormal}, {-0.04, 0.04},
		{math.Inf(1), 0}, {0, math.Inf(-1)}, {math.NaN(), 0}, {1e15 + 0.5, 3},
	} {
		drawings = append(drawings, hostileDrawing(c[0], c[1], 1, c[1], c[0]))
	}
	for i, d := range drawings {
		var got, want bytes.Buffer
		if err := d.WriteSVG(&got); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteSVG(d, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("drawing %d: WriteSVG differs from fmt\n got: %q\nwant: %q", i, got.Bytes(), want.Bytes())
		}
	}
}

// hostileDrawing is a drawing of two real nodes — one unlabelled, one
// labelled with every XML metacharacter — joined by a reversed edge, plus
// a dummy node.
func hostileDrawing(x, y, w, x2, y2 float64) *Drawing {
	return &Drawing{
		Nodes: []Node{
			{V: 7, X: x, Y: y, W: w, Layer: 2},
			{V: 8, X: x2, Y: y2, W: w, Layer: 1, Label: `<&">`},
			{V: 9, X: x, Y: y2, W: 1, Layer: 1, Dummy: true},
		},
		Edges: []DrawnEdge{{From: 7, To: 8, Points: []Point{{x, y}, {x2, y2}}, Reversed: true}},
	}
}

// TestAppendFixedMatchesStrconv pins appendFixed's integer rounding to
// strconv's exact one on ties, boundaries and non-finite values.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 0.05, 0.15, 0.25, 0.35, 0.45, 0.5, 0.75, 1.5, 2.5, -2.5, -0.25,
		0.95, 9.95, 99.95, 1e15 + 0.5, 1<<52 - 0.5, 1 << 52, 1<<53 + 2, 1e21, 1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.Inf(1), math.Inf(-1), math.NaN()}
	for k := 0; k < 4096; k++ {
		xs = append(xs, float64(k)/16, float64(k)/20, -float64(k)/40, float64(k)*1.1)
	}
	for _, x := range xs {
		checkAppendFixed(t, x)
		checkAppendFixed(t, math.Nextafter(x, math.Inf(1)))
		checkAppendFixed(t, math.Nextafter(x, math.Inf(-1)))
	}
}

func checkAppendFixed(t *testing.T, x float64) {
	t.Helper()
	for dec := 0; dec <= 1; dec++ {
		got := appendFixed(nil, x, dec)
		if want := strconv.AppendFloat(nil, x, 'f', dec, 64); !bytes.Equal(got, want) {
			t.Fatalf("appendFixed(%v, %d) = %s, strconv %s", x, dec, got, want)
		}
	}
}

// FuzzWriteSVG builds a drawing from the fuzz input and requires the
// append-based writer to write the fmt-based writer's bytes.
func FuzzWriteSVG(f *testing.F) {
	f.Add("a&b", 0.25/24, 0.75/24, 1.0, -0.04, 2.0, 3, true)
	f.Add("", math.Copysign(0, -1), 0.0, 0.0, 1e21, 1e300, -1, false)
	f.Add(`<"ü">`, math.Inf(1), math.NaN(), 1e-7, math.SmallestNonzeroFloat64, math.Inf(-1), 0, true)
	f.Fuzz(func(t *testing.T, label string, x, y, w, x2, y2 float64, v int, reversed bool) {
		d := hostileDrawing(x, y, w, x2, y2)
		d.Nodes[0].V = v
		d.Nodes[1].Label = label
		d.Edges[0].Reversed = reversed
		var got, want bytes.Buffer
		if err := d.WriteSVG(&got); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteSVG(d, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteSVG differs from fmt\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
		}
		for _, c := range []float64{x, y, w, x2, y2} {
			checkAppendFixed(t, c)
		}
	})
}
