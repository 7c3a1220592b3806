package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"antlayer"
	"antlayer/internal/graphgen"
)

// TestKeysMatchFmt pins the keys' byte contract: graphKey and requestKey
// hash exactly the bytes the fmt-based versions they replaced hashed
// (oracleGraphKey, and oracleRequestKey of the keyed request), so every
// X-Graph-Key and X-Cache-Key stays what clients and caches already
// hold. Graphs are corpus graphs under random names (quotes, backslashes,
// invalid UTF-8, non-ASCII) and widths; requests randomise every field of
// the colony parameters by reflection, so a field added to core.Params
// fails here until appendParams writes it.
func TestKeysMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0))
	groups, err := graphgen.CorpusSample(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	fragments := []string{"a", "v1", `"`, `\`, "\xff", "\xc2", "é", "日本", " ", "\n", "\t", "\x00", "\u00a0", "\u2028", ""}
	widths := []float64{0, 1, 0.1, 1e-7, 1e21, 123456789, 5e-324, 2.5, math.MaxFloat64}
	var keys []string
	for _, gr := range groups {
		for _, g := range gr.Graphs {
			g = g.Clone()
			names := make([]string, g.N())
			for v := range names {
				for range rng.IntN(4) {
					names[v] += fragments[rng.IntN(len(fragments))]
				}
				g.SetWidth(v, widths[rng.IntN(len(widths))])
			}
			got, want := graphKey(g, names), oracleGraphKey(g, names)
			if got != want {
				t.Fatalf("n=%d: graphKey %s, fmt %s", g.N(), got, want)
			}
			keys = append(keys, got)
		}
	}

	floats := []float64{0, 1, -1, 0.1, 1e-7, 1e21, 123456789, 5e-324, -2.5, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	ints := []int64{0, 1, 2, 3, -1, 10, 1 << 40, math.MaxInt64, math.MinInt64}
	algos := []string{"aco", "island", "lpl", "minwidth", "cg", "ns"}
	renders := []RenderMode{RenderNone, RenderSVG, RenderASCII}
	for i := range 2000 {
		req := DefaultRequest()
		req.Algo = algos[rng.IntN(len(algos))]
		req.Promote = rng.IntN(2) == 1
		req.Render = renders[rng.IntN(len(renders))]
		req.DummyWidth = floats[rng.IntN(len(floats))]
		req.CGWidth = int(ints[rng.IntN(len(ints))])
		req.Islands, req.MigrationInterval = rng.IntN(9), rng.IntN(9)
		p := reflect.ValueOf(&req.ACO).Elem()
		for f := range p.NumField() {
			field := p.Field(f)
			switch field.Kind() {
			case reflect.Int, reflect.Int64:
				field.SetInt(ints[rng.IntN(len(ints))])
			case reflect.Float64:
				field.SetFloat(floats[rng.IntN(len(floats))])
			case reflect.Bool:
				field.SetBool(rng.IntN(2) == 1)
			case reflect.Pointer:
				if rng.IntN(2) == 1 {
					field.Set(reflect.New(field.Type().Elem()))
				}
			default:
				t.Fatalf("Params.%s is a %s: teach appendParams and this test about it",
					p.Type().Field(f).Name, field.Kind())
			}
		}
		gk := keys[i%len(keys)]
		if got, want := requestKey(req, gk), oracleRequestKey(req.keyed(), gk); got != want {
			t.Fatalf("%+v: requestKey %s, fmt %s", req, got, want)
		}
	}
}

// oracleRequestKey and oracleGraphKey are the fmt-based key functions
// requestKey and graphKey replaced, kept verbatim as TestKeysMatchFmt's
// reference for the hashed bytes.
func oracleRequestKey(req Request, gk string) string {
	h := sha256.New()
	fmt.Fprintf(h, "graph=%s\n", gk)
	aco := req.ACO
	aco.Workers = 0
	aco.Warm = nil
	aco.ExportState = false
	islands, interval := 0, 0
	if req.Algo == "island" {
		ip := req.IslandOf()
		islands, interval = ip.Islands, ip.MigrationInterval
	}
	fmt.Fprintf(h, "p algo=%s promote=%t render=%s dummyWidth=%g cgWidth=%d islands=%d interval=%d aco=%+v\n",
		req.Algo, req.Promote, req.Render, req.DummyWidth, req.CGWidth,
		islands, interval, aco)
	return hex.EncodeToString(h.Sum(nil))
}

func oracleGraphKey(g *antlayer.Graph, names []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "g n=%d\n", g.N())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(h, "v %d w=%g name=%q\n", v, g.Width(v), names[v])
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		fmt.Fprintf(h, "e %d %d\n", e.U, e.V)
	}
	return hex.EncodeToString(h.Sum(nil))
}
