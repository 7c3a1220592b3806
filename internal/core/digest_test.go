package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"antlayer/internal/graphgen"
)

// TestColonyCorpusDigest pins the colony's output bit-for-bit over a
// corpus sample: 38 graphs (n = 10…100) under a parameter matrix that
// reaches every RNG and η path of the walk — both heuristics, all three
// selection modes, the integer-β fast path and its math.Pow fallback, the
// τ^α snapshot, the width bound, the stall stop, a warm start and a
// parallel pool. Each configuration's digest is a SHA-256 over every
// run's objective bits, best tour, complete History and normalized
// assignment.
//
// The digests are golden: they were recorded from the math/rand-backed
// walk before the ant generator and the η memo replaced it, so they pin
// that both reproduce the old stream and arithmetic exactly. A mismatch
// means a run changed its bytes; re-record only with an intentional
// determinism-contract change.
func TestColonyCorpusDigest(t *testing.T) {
	groups, err := graphgen.CorpusSample(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultParams()
	base.Workers = 1
	with := func(f func(*Params)) Params {
		p := base
		f(&p)
		return p
	}
	configs := []struct {
		name   string
		p      Params
		golden string
	}{
		{"default", base,
			"a881818e5940315cfb7954f866877b8770457e292d3b283b6e25c2dd40d3695c"},
		{"roulette", with(func(p *Params) { p.Selection = SelectRoulette }),
			"6938515f4b1fc5f6d8fed46d61dfbf5cd0cbfc565da605461d287f8f5f7a4045"},
		{"argmax", with(func(p *Params) { p.Selection = SelectArgMax }),
			"e5f5b7cfdb5f3975ec6b5dee885161213284c167d145f5808557baab360186dc"},
		{"layer-width", with(func(p *Params) { p.Heuristic = HeuristicLayerWidth }),
			"635a9d231af4ca035ae72981cdff8fd068d493ee985bb132e91f7fdc22ea3c08"},
		{"beta=2.5", with(func(p *Params) { p.Beta = 2.5 }),
			"7896e8d6e4c6a5a6b2329b6969b5f337dd5257bf0722ccacf56062e574915523"},
		{"alpha=1.5", with(func(p *Params) { p.Alpha = 1.5 }),
			"ec93feb0710f840a740c9d1cd8b3c26cc5a16ffe02146b770475bb272a617fb4"},
		{"width-bound", with(func(p *Params) { p.WidthBound = 6 }),
			"e4780e42d9a0dafbf7dde3178982c4e31101f1c667c22bfb02f41652d99e45d4"},
		{"stall=3", with(func(p *Params) { p.StopAfterStagnantTours = 3 }),
			"0d831966bf7d6baa4bc5ef3d6af69193213fe5e9d30e141043314b2a3667f6ee"},
		// The Workers contract: a parallel pool digests like the default.
		{"workers=3", with(func(p *Params) { p.Workers = 3 }),
			"a881818e5940315cfb7954f866877b8770457e292d3b283b6e25c2dd40d3695c"},
	}
	// warm digests a 3-tour warm start from each default cold run's State.
	warm := sha256.New()
	for _, cfg := range configs {
		h := sha256.New()
		i := 0
		for _, grp := range groups {
			for _, g := range grp.Graphs {
				i++
				p := cfg.p
				p.Seed = int64(i)
				p.ExportState = cfg.name == "default"
				res, err := Run(context.Background(), g, p)
				if err != nil {
					t.Fatalf("%s: graph %d: %v", cfg.name, i, err)
				}
				digestResult(h, res)
				if res.State == nil {
					continue
				}
				wp := base
				wp.Seed = int64(i)
				wp.Tours = 3
				wp.Warm = res.State
				wres, err := Run(context.Background(), g, wp)
				if err != nil {
					t.Fatalf("warm: graph %d: %v", i, err)
				}
				digestResult(warm, wres)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != cfg.golden {
			t.Errorf("%s: digest %s, golden %s", cfg.name, got, cfg.golden)
		}
	}
	const warmGolden = "5d32e68cd67e3f45241d416ce6fd5625a4ad4bbcda0934198254416c597648e3"
	if got := hex.EncodeToString(warm.Sum(nil)); got != warmGolden {
		t.Errorf("warm: digest %s, golden %s", got, warmGolden)
	}
}

// digestResult feeds one run's observable output into h as fixed-width
// little-endian words: objective bits, best tour, every History entry
// and the normalized layer of every vertex.
func digestResult(h hash.Hash, res *Result) {
	var buf []byte
	f := func(x float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x)) }
	n := func(x int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(x)) }
	f(res.Objective)
	n(res.BestTour)
	n(len(res.History))
	for _, s := range res.History {
		n(s.Tour)
		f(s.BestObjective)
		f(s.MeanObjective)
		n(s.BestHeight)
		f(s.BestWidth)
		f(s.PheromoneConcentration)
	}
	g := res.Layering.Graph()
	for v := 0; v < g.N(); v++ {
		n(res.Layering.Layer(v))
	}
	h.Write(buf)
}
