package sugiyama

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"antlayer/internal/core"
	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/layering"
	"antlayer/internal/longestpath"
	"antlayer/internal/minwidth"
)

// TestDrawingCorpusDigest pins the drawing path byte for byte: the SVG,
// the ASCII view, the crossing count and every node and edge-point
// coordinate of the drawings of 114 corpus graphs (the sparse, dense and
// pipeline families, two graphs per group) under three layerings each —
// LPL, MinWidth and a default-seed colony — and of a cyclic graph, for
// each ordering method with and without coordinate sweeps.
//
// The digests are golden: they were recorded from the drawing code that
// recounted both gaps for every candidate swap and formatted the SVG
// through fmt, before the transpose-rule switch, the scratch-reusing
// sweeps and the append-based writer replaced it. A mismatch means a
// drawing changed its bytes.
func TestDrawingCorpusDigest(t *testing.T) {
	var layerings []*layering.Layering
	for _, f := range []graphgen.Family{graphgen.Sparse, graphgen.Dense, graphgen.PipelineFamily} {
		groups, err := graphgen.CorpusFamily(7, 2, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, grp := range groups {
			for _, g := range grp.Graphs {
				lpl, err := longestpath.Layer(g)
				if err != nil {
					t.Fatal(err)
				}
				mw, err := minwidth.LayerBest(g, 1)
				if err != nil {
					t.Fatal(err)
				}
				p := core.DefaultParams()
				p.Workers = 1
				res, err := core.Run(context.Background(), g, p)
				if err != nil {
					t.Fatal(err)
				}
				layerings = append(layerings, lpl, mw, res.Layering)
			}
		}
	}
	cyclic := dag.New(4)
	cyclic.MustAddEdge(0, 1)
	cyclic.MustAddEdge(1, 2)
	cyclic.MustAddEdge(2, 3)
	cyclic.MustAddEdge(3, 0)

	// The cycle has one drawing under every configuration.
	const cyclicGolden = "25465ecb2897709381ea3c422dfdb5ab31827e37c7ecab01ef9abca72ecce7c2"
	configs := []struct {
		name   string
		method OrderingMethod
		sweeps int
		golden string
	}{
		{"barycenter/sweeps=0", Barycenter, 0,
			"6871d8770aa60f1d4ea01d7c34ec3349039faf1784fb05ef711728c7abe757a2"},
		{"barycenter/sweeps=2", Barycenter, 2,
			"b152aed2d97a4eb2001cd330d093e26cd9d65d8553542c6ac097584fe4c64554"},
		{"median/sweeps=0", Median, 0,
			"1eba6de12cb651758fbed564b677632d0a6cce374e84f1d841037d13aa5f511e"},
		{"median/sweeps=2", Median, 2,
			"2b25a196a492af8a4d3cebc9859933f431c6888918123ef20350ddf4b0e6a0c8"},
	}
	for _, c := range configs {
		cfg := DefaultConfig(nil)
		cfg.Ordering = c.method
		cfg.CoordinateSweeps = c.sweeps
		h := sha256.New()
		for i, l := range layerings {
			cfg.Layerer = LayererFunc(func(*dag.Graph) (*layering.Layering, error) { return l.Clone(), nil })
			d, err := Run(l.Graph(), cfg)
			if err != nil {
				t.Fatalf("%s: layering %d: %v", c.name, i, err)
			}
			digestDrawing(t, h, d)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.golden {
			t.Errorf("%s: digest %s, golden %s", c.name, got, c.golden)
		}
		cfg.Layerer = LayererFunc(longestpath.Layer)
		d, err := Run(cyclic, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.Reset()
		digestDrawing(t, h, d)
		if got := hex.EncodeToString(h.Sum(nil)); got != cyclicGolden {
			t.Errorf("%s: cyclic digest %s, golden %s", c.name, got, cyclicGolden)
		}
	}
}

// digestDrawing feeds a drawing's observable output into h: its SVG and
// ASCII bytes, then the crossing count and, as fixed-width little-endian
// words, every node's vertex and coordinate bits and every edge point.
func digestDrawing(t *testing.T, h hash.Hash, d *Drawing) {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	f := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	n := func(x int) { b = binary.LittleEndian.AppendUint64(b, uint64(x)) }
	n(d.Crossings)
	for _, nd := range d.Nodes {
		n(nd.V)
		f(nd.X)
		f(nd.Y)
		f(nd.W)
	}
	for _, e := range d.Edges {
		n(len(e.Points))
		for _, p := range e.Points {
			f(p.X)
			f(p.Y)
		}
	}
	h.Write(b)
}
